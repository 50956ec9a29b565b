package sim

import (
	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/tlb"
)

// corePort sits between a core and its L1D: it applies address-translation
// latency (DTLB/STLB/page walk, Table 3) to demand accesses before they
// reach the cache. Translated-but-delayed requests wait in a small queue and
// retry the L1D until accepted, preserving backpressure.
type corePort struct {
	s       *System
	core    int
	tlbs    *tlb.Hierarchy
	pending []delayedReq
}

type delayedReq struct {
	req   mem.Request
	ready uint64
}

// Issue implements cpu.MemoryPort.
//
//clipvet:tilephase
func (p *corePort) Issue(req *mem.Request) bool {
	if p.tlbs == nil {
		return p.s.l1d[p.core].Issue(req)
	}
	extra := p.tlbs.Translate(req.Addr)
	if extra == 0 {
		return p.s.l1d[p.core].Issue(req)
	}
	// Bound the translation queue so a wall of walks backpressures the LQ.
	if len(p.pending) >= 16 {
		return false
	}
	p.pending = append(p.pending, delayedReq{req: *req, ready: p.s.cycle + extra})
	return true
}

// NextEvent returns the earliest cycle >= now at which a queued translation
// can (re)try the L1D; mem.NoEvent when the port is empty.
func (p *corePort) NextEvent(now uint64) uint64 {
	next := mem.NoEvent
	for i := range p.pending {
		r := p.pending[i].ready
		if r <= now {
			return now // matured translations retry the L1D every cycle
		}
		if r < next {
			next = r
		}
	}
	return next
}

// Tick retries matured translations in queue order and stops at the first
// L1D refusal. A refusal means the L1D input queue is full, and only loads
// and stores pass this port (never a droppable prefetch), so the L1D would
// refuse every later entry in this call too: they stay where they are.
//
//clipvet:tilephase
func (p *corePort) Tick(cycle uint64) {
	if len(p.pending) == 0 {
		return
	}
	l1 := p.s.l1d[p.core]
	kept := 0
	for i := range p.pending {
		d := &p.pending[i]
		if d.ready <= cycle {
			if invariant.Enabled {
				invariant.Check(d.req.Type == mem.Load || d.req.Type == mem.Store,
					"sim: core %d port holds a %v request", p.core, d.req.Type)
			}
			if l1.Issue(&d.req) {
				continue
			}
			kept += copy(p.pending[kept:], p.pending[i:])
			break
		}
		p.pending[kept] = *d
		kept++
	}
	p.pending = p.pending[:kept]
}

// icache is the lightweight L1I model: a tag array sized to Table 3's 32KB
// 8-way L1I. Instruction blocks are small and code is resident on-chip in
// steady state, so a miss costs the L2 round trip rather than a modelled
// memory request — enough to make large-IP-footprint workloads (CloudSuite/
// CVP) pay realistic front-end stalls while loop kernels run free.
type icache struct {
	sets, ways  int
	tags        []icLine
	missPenalty uint64
	clock       uint64
	stats       ICacheStats
}

// ICacheStats counts instruction-fetch outcomes.
type ICacheStats struct {
	Fetches uint64
	Misses  uint64
}

// HitRate returns the instruction fetch hit rate.
func (s *ICacheStats) HitRate() float64 {
	return 1 - stats.Ratio(s.Misses, s.Fetches)
}

type icLine struct {
	valid bool
	tag   uint64
	stamp uint64
}

func newICache(sets, ways int, missPenalty uint64) *icache {
	return &icache{sets: sets, ways: ways,
		tags: make([]icLine, sets*ways), missPenalty: missPenalty}
}

// fetch returns the stall for the block containing ip (0 on hit).
func (ic *icache) fetch(ip uint64) uint64 {
	ic.stats.Fetches++
	block := ip >> 6
	// Hashed set index: synthetic code blocks are power-of-two aligned and
	// plain low-bit indexing would alias hot blocks into one set.
	set := int(mem.Mix64(block) & uint64(ic.sets-1))
	tag := block
	base := set * ic.ways
	for w := 0; w < ic.ways; w++ {
		l := &ic.tags[base+w]
		if l.valid && l.tag == tag {
			ic.clock++
			l.stamp = ic.clock
			return 0
		}
	}
	ic.stats.Misses++
	victim := base
	for w := 0; w < ic.ways; w++ {
		l := &ic.tags[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.stamp < ic.tags[victim].stamp {
			victim = base + w
		}
	}
	ic.clock++
	ic.tags[victim] = icLine{valid: true, tag: tag, stamp: ic.clock}
	return ic.missPenalty
}

// dynamicClip implements the paper's §5.3 "Dynamic CLIP" future-work
// extension: CLIP's filtering is bypassed while per-core DRAM bandwidth is
// ample (low utilization) and re-engaged under pressure, with hysteresis.
// CLIP keeps training either way so re-engagement is instant.
type dynamicClip struct {
	active       bool
	activeCycles uint64
	totalCycles  uint64
}

const (
	dynClipOnUtil  = 0.55 // engage filtering above this utilization
	dynClipOffUtil = 0.35 // release below this
	dynClipEpoch   = 2048 // cycles between utilization samples
)

// update samples utilization once per epoch.
func (d *dynamicClip) update(cycle uint64, util float64) {
	if cycle%dynClipEpoch == 0 {
		if util >= dynClipOnUtil {
			d.active = true
		} else if util <= dynClipOffUtil {
			d.active = false
		}
	}
	d.totalCycles++
	if d.active {
		d.activeCycles++
	}
}

// nextSample returns the next utilization-sample cycle >= now.
func (d *dynamicClip) nextSample(now uint64) uint64 {
	return (now + dynClipEpoch - 1) / dynClipEpoch * dynClipEpoch
}

// advance bulk-applies n cycles of engaged-time accounting for a skipped
// window that contains no sample boundary (the simulation loop folds
// nextSample into its horizon), during which the active flag cannot change.
func (d *dynamicClip) advance(n uint64) {
	d.totalCycles += n
	if d.active {
		d.activeCycles += n
	}
}

// ActiveFraction reports how long filtering was engaged.
func (d *dynamicClip) ActiveFraction() float64 {
	return stats.Ratio(d.activeCycles, d.totalCycles)
}

// resetCounters restarts the engaged-time accounting (warmup barrier).
func (d *dynamicClip) resetCounters() {
	d.activeCycles, d.totalCycles = 0, 0
}
