// Package cache implements the set-associative caches of the baseline
// hierarchy (Table 3): tag arrays, MSHRs with request merging, write-back /
// write-allocate stores, replacement policies, and the demand/prefetch
// accounting (coverage, accuracy, lateness) that the paper's figures report.
//
// A Cache is a cycle-ticked component. Requests enter through Issue (which
// applies backpressure by returning false), misses flow to the Lower level,
// and fills return through Fill. Responses to the level above are delivered
// via the OnResponse callback.
//
// Storage is structure-of-arrays, carved from a single uint64 slab allocated
// at construction: tags pack validity into bit 0 so the way scan is one
// word compare per way, dirty/prefetch state lives in per-set way bitmaps,
// and the MSHR file is parallel arrays scheduled by a table.Bits occupancy
// bitmap (first-free allocation, ascending-order merge scan — the exact
// semantics of the per-entry loops this replaces).
package cache

import (
	"fmt"
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/table"
)

// TraceLine, when nonzero, logs every lifecycle event of one cache line
// through every cache instance (bring-up / debugging aid).
var TraceLine mem.Addr

//clipvet:allocok debug-only line tracing; dead unless TraceLine is set
func (c *Cache) trace(event string, req *mem.Request) {
	if TraceLine != 0 && req.Addr.Line() == TraceLine {
		fmt.Printf("  [%s cy%d] %s type=%v owned=%v fill=%v\n",
			c.cfg.Name, c.cycle, event, req.Type, req.Owned, req.FillLevel)
	}
}

// Lower is the next level down (another cache, a NoC adapter, or DRAM). The
// request is fully consumed during the call (copied if queued); callees must
// not retain the pointer.
type Lower interface {
	Issue(req *mem.Request) bool
}

// Config sizes one cache instance.
type Config struct {
	Name    string
	Level   mem.Level
	Sets    int
	Ways    int
	Latency uint64 // hit/lookup latency in cycles
	MSHRs   int
	Policy  string // see NewPolicy
	Ports   int    // requests processed per cycle
	InQ     int    // input queue depth
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 || (c.Sets&(c.Sets-1)) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, ways positive", c.Name)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache %s: ways %d exceeds the 64-way bitmap limit", c.Name, c.Ways)
	}
	if c.MSHRs <= 0 || c.Ports <= 0 {
		return fmt.Errorf("cache %s: MSHRs and Ports must be positive", c.Name)
	}
	return nil
}

// Stats holds per-cache counters.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64
	StoreAccesses  uint64
	PFIssued       uint64 // prefetch requests accepted at this level
	PFDropped      uint64 // prefetches dropped for structural reasons
	PFFills        uint64 // prefetched lines installed
	PFUseful       uint64 // prefetched lines touched by a demand
	PFLate         uint64 // demands merged into in-flight prefetch MSHRs
	PFPolluting    uint64 // prefetched lines evicted untouched
	Writebacks     uint64
	Evictions      uint64
	MSHRFullEvents uint64
	OrphanFills    uint64 // fills that matched no MSHR

	// DemandMissLatency measures acceptance-to-fill latency of demand misses
	// at this level (Figure 3 and Figure 11 feed from this).
	DemandMissLatency stats.LatencyAcc
}

// HitRate returns demand hit rate.
func (s *Stats) HitRate() float64 { return stats.Ratio(s.DemandHits, s.DemandAccesses) }

// Coverage returns prefetch coverage: the fraction of would-be demand misses
// eliminated by prefetching.
func (s *Stats) Coverage() float64 {
	return stats.Ratio(s.PFUseful, s.PFUseful+s.DemandMisses)
}

// Accuracy returns prefetch accuracy: useful fills / fills. Late-but-useful
// prefetches count as useful (the paper counts them as accurate).
func (s *Stats) Accuracy() float64 {
	return stats.Ratio(s.PFUseful+s.PFLate, s.PFFills+s.PFLate)
}

// waiter is a request parked on an MSHR, with its arrival cycle so demand
// miss latency is measured from *its* arrival (a late-prefetch merge waits
// less than the full fill time).
type waiter struct {
	req     mem.Request
	arrived uint64
}

type queued struct {
	req     mem.Request
	ready   uint64
	counted bool // per-level stats recorded (lookup may retry under stalls)
}

// AccessEvent notifies prefetcher training: a demand access at this level.
type AccessEvent struct {
	Req   mem.Request
	Hit   bool
	Cycle uint64
	// HitPrefetchedLine: the demand hit a line originally brought by a
	// prefetch (first touch) — per-IP prefetch usefulness feeds from this.
	HitPrefetchedLine bool
	TriggerIP         uint64 // trigger IP of the prefetched line, if any
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg    Config
	policy *Policy
	lower  Lower

	// Line state, structure-of-arrays. tags[set*Ways+way] packs the tag as
	// tag<<1|1 so zero means invalid and the way scan is a single compare.
	// dirtyBits/pfBits/validBits[set] hold one bit per way (validBits makes
	// the install free-way pick a TrailingZeros64 scan and gives Probe an
	// empty-set early out). trigger[set*Ways+way] is the prefetch trigger
	// IP. All five are carved from slab.
	slab      []uint64
	tags      []uint64
	trigger   []uint64
	dirtyBits []uint64
	pfBits    []uint64
	validBits []uint64

	inQ mem.Ring[queued]
	wbQ mem.Ring[mem.Request]

	// setShift is log2(Sets): the tag is the line ID above the set bits.
	setShift uint

	// blocked memoizes that the input-queue head is stalled on a full MSHR
	// file (mshr-full-block). Until the next Fill — the only event that
	// frees an MSHR or installs a line — a retry can only repeat the same
	// refusal, so the head is not looked up again: each cycle the cache
	// would have retried just counts an MSHRFullEvent. A pure memo, not
	// serialized: a cleared flag re-runs the real lookup, which sets it
	// again.
	blocked bool

	// MSHR file, structure-of-arrays scheduled by mshrValid: allocation is
	// FirstClear (lowest free slot), the merge scan walks set bits ascending
	// — both exactly the orders of the former per-entry loops.
	mshrValid table.Bits
	mshrPF    table.Bits // allocator was a prefetch
	mshrLine  []mem.Addr
	mshrFirst []uint64      // allocation cycle
	mshrPfReq []mem.Request // original prefetch request (fill bookkeeping)
	mshrWait  [][]waiter

	respQ []mem.Response // responses to the level above, ready-ordered

	onResp    func(*mem.Response)
	onAccess  func(*AccessEvent)
	onPFEvict func(trigger uint64, addr mem.Addr)

	// down buffers the request forwarded to the lower level so the pointer
	// handed through the Lower interface never forces a per-miss heap
	// allocation; accessEv likewise for the training callback. Callees
	// consume both synchronously.
	down     mem.Request
	accessEv AccessEvent

	cycle uint64
	stats Stats
}

// New builds a cache. lower may be nil for a cache whose misses should never
// happen (tests); issuing a miss with a nil lower panics.
func New(cfg Config, lower Lower) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InQ <= 0 {
		cfg.InQ = 16
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1
	}
	c := &Cache{
		cfg:       cfg,
		policy:    NewPolicy(cfg.Policy, cfg.Sets, cfg.Ways),
		lower:     lower,
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		mshrValid: table.NewBits(cfg.MSHRs),
		mshrPF:    table.NewBits(cfg.MSHRs),
		mshrLine:  make([]mem.Addr, cfg.MSHRs),
		mshrFirst: make([]uint64, cfg.MSHRs),
		mshrPfReq: make([]mem.Request, cfg.MSHRs),
		mshrWait:  make([][]waiter, cfg.MSHRs),
	}
	lines := cfg.Sets * cfg.Ways
	c.slab = make([]uint64, 2*lines+3*cfg.Sets)
	c.tags, c.trigger = c.slab[:lines], c.slab[lines:2*lines]
	c.dirtyBits = c.slab[2*lines : 2*lines+cfg.Sets]
	c.pfBits = c.slab[2*lines+cfg.Sets : 2*lines+2*cfg.Sets]
	c.validBits = c.slab[2*lines+2*cfg.Sets:]
	// Carve every MSHR's waiter list out of one backing array (full slice
	// expressions cap each list at its 8-slot share, so an overflowing append
	// migrates that list to its own array instead of clobbering a neighbour).
	wbacking := make([]waiter, cfg.MSHRs*8)
	for i := range c.mshrWait {
		c.mshrWait[i] = wbacking[i*8 : i*8 : (i+1)*8]
	}
	return c, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config, lower Lower) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SlabWords returns the line-state slab size in words (bench diagnostics).
func (c *Cache) SlabWords() int { return len(c.slab) }

// OnResponse registers the response sink for the level above. The response
// pointer is only valid for the duration of the call.
func (c *Cache) OnResponse(f func(*mem.Response)) { c.onResp = f }

// OnAccess registers the prefetcher-training callback (demand stream). The
// event pointer is only valid for the duration of the call.
func (c *Cache) OnAccess(f func(*AccessEvent)) { c.onAccess = f }

// OnPFEvict registers a callback fired when a prefetched line is evicted
// without ever being demand-touched (negative usefulness feedback for PPF).
func (c *Cache) OnPFEvict(f func(trigger uint64, addr mem.Addr)) { c.onPFEvict = f }

// Issue enqueues a request (copied; the pointer is not retained). Returns
// false (caller must retry) when the input queue is full — except
// prefetches, which are dropped instead of retried, matching the paper's
// "dropped and not allocated to the MSHR" semantics.
//
//clipvet:hotpath
func (c *Cache) Issue(req *mem.Request) bool {
	if c.inQ.Len() >= c.cfg.InQ {
		if req.Type == mem.Prefetch && !req.Owned {
			c.trace("issue-drop-pf", req)
			c.stats.PFDropped++
			return true
		}
		c.trace("issue-refused", req)
		return false
	}
	c.trace("issue-accept", req)
	// The request arrives next cycle; the tag lookup then takes Latency.
	c.inQ.Push(queued{req: *req, ready: c.cycle + 1 + c.cfg.Latency})
	if req.Type == mem.Prefetch && req.FillLevel == mem.LevelNone {
		c.inQ.At(c.inQ.Len() - 1).req.FillLevel = mem.LevelL1
	}
	if invariant.Enabled {
		invariant.Check(c.inQ.Len() <= c.cfg.InQ,
			"cache %s: input queue occupancy %d exceeds depth %d",
			c.cfg.Name, c.inQ.Len(), c.cfg.InQ)
	}
	return true
}

// TryIssue is Issue without the silent prefetch drop: it returns false when
// the input queue is full so the caller (the per-core prefetch queue) can
// hold the request and retry, modelling ChampSim's PQ.
func (c *Cache) TryIssue(req *mem.Request) bool {
	if c.inQ.Len() >= c.cfg.InQ {
		return false
	}
	return c.Issue(req)
}

// Probe reports whether the line is present (no state update; test/diagnostic
// helper and Hermes' filter input).
func (c *Cache) Probe(addr mem.Addr) bool {
	set, tag := c.index(addr)
	if c.validBits[set] == 0 {
		return false // empty set: skip the tag column scan entirely
	}
	return c.findWay(set, tag) >= 0
}

// findWay returns the way holding tag in set, or -1. Packed tags make the
// scan one word compare per way with no validity branch; the one-time
// reslice bounds the column so the compiler drops the per-way bounds check.
func (c *Cache) findWay(set int, tag uint64) int {
	key := tag<<1 | 1
	base := set * c.cfg.Ways
	ways := c.tags[base : base+c.cfg.Ways]
	for w := range ways {
		if ways[w] == key {
			return w
		}
	}
	return -1
}

// mshrFind returns the lowest valid MSHR index tracking lineAddr, or -1: a
// word-wide walk of the occupancy bitmap (TrailingZeros over each word)
// that visits set bits in the same ascending order as a per-entry scan.
func (c *Cache) mshrFind(lineAddr mem.Addr) int {
	for wi, w := range c.mshrValid.Words() {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if c.mshrLine[i] == lineAddr {
				return i
			}
		}
	}
	return -1
}

// MSHRInUse returns the number of valid MSHR entries.
func (c *Cache) MSHRInUse() int { return c.mshrValid.Count() }

// MSHRFree returns the number of free MSHRs.
func (c *Cache) MSHRFree() int { return c.cfg.MSHRs - c.MSHRInUse() }

// InQLen returns the input queue occupancy.
func (c *Cache) InQLen() int { return c.inQ.Len() }

// DebugMSHRs lists occupied MSHR line addresses with waiter counts and ages.
func (c *Cache) DebugMSHRs(now uint64) string {
	out := ""
	for i := c.mshrValid.First(); i >= 0; i = c.mshrValid.Next(i + 1) {
		out += fmt.Sprintf("[%x w%d pf%v age%d]",
			uint64(c.mshrLine[i]), len(c.mshrWait[i]), c.mshrPF.Test(i), now-c.mshrFirst[i])
	}
	return out
}

// DebugInQ summarises queued request types.
func (c *Cache) DebugInQ() string {
	out := ""
	for i := 0; i < c.inQ.Len(); i++ {
		out += fmt.Sprintf("%d", int(c.inQ.At(i).req.Type))
	}
	return out
}

func (c *Cache) index(addr mem.Addr) (set int, tag uint64) {
	lineID := addr.LineID()
	set = int(lineID & uint64(c.cfg.Sets-1))
	tag = lineID >> c.setShift
	return
}

// Tick advances one cycle: drain writebacks, process ready requests, deliver
// ready responses upward.
//
//clipvet:hotpath
func (c *Cache) Tick(cycle uint64) {
	c.cycle = cycle
	c.drainWritebacks()
	c.process()
	c.deliver()
}

// NextEvent returns the earliest cycle >= now at which Tick can make
// progress: queued writebacks and responses drain every cycle, and queued
// requests mature at the head entry's lookup-ready time. A cache whose
// queues are all empty is quiescent (mem.NoEvent) even with MSHRs in
// flight — fills arrive through Fill, which repopulates the response queue
// and thereby pulls the horizon back to "now" before the next Tick gate.
// An input queue whose head is blocked on a full MSHR file is quiescent
// the same way: only a Fill can unblock it.
func (c *Cache) NextEvent(now uint64) uint64 {
	if c.wbQ.Len() > 0 || len(c.respQ) > 0 {
		return now
	}
	if c.inQ.Len() > 0 && !c.blockedHead() {
		if r := c.inQ.Front().ready; r > now {
			return r
		}
		return now
	}
	return mem.NoEvent
}

// SkipTick replaces Tick for every cycle after the last Tick up to and
// including cycle, which the simulation loop proved idle via NextEvent. The
// internal clock advances (Issue stamps lookup maturity relative to it, so
// it must track the global cycle even across skips), and a head blocked on
// a full MSHR file is charged the one MSHRFullEvent per cycle that each
// skipped Tick would have counted.
func (c *Cache) SkipTick(cycle uint64) {
	if invariant.Enabled {
		invariant.Check(c.NextEvent(cycle) > cycle,
			"cache %s: tick skipped at cycle %d with work pending (inQ=%d wbQ=%d resp=%d)",
			c.cfg.Name, cycle, c.inQ.Len(), c.wbQ.Len(), len(c.respQ))
	}
	if c.blockedHead() {
		c.stats.MSHRFullEvents += cycle - c.cycle
	}
	c.cycle = cycle
}

// blockedHead reports the blocked memo. Under clipdebug it re-derives the
// memo from the state it summarizes: the MSHR file is full and the head's
// line is neither present nor tracked by an MSHR.
func (c *Cache) blockedHead() bool {
	if invariant.Enabled && c.blocked {
		req := &c.inQ.Front().req
		set, tag := c.index(req.Addr)
		invariant.Check(c.mshrValid.FirstClear() < 0 && c.findWay(set, tag) < 0 &&
			c.mshrFind(req.Addr.Line()) < 0,
			"cache %s: head %x marked blocked but could proceed (MSHRs in use %d/%d)",
			c.cfg.Name, uint64(req.Addr), c.MSHRInUse(), c.cfg.MSHRs)
	}
	return c.blocked
}

func (c *Cache) drainWritebacks() {
	for c.wbQ.Len() > 0 {
		//clipvet:staged only the serially-ticked LLC has DRAM as lower; tile-phase L1/L2 drain into the staged l2Lower
		if c.lower == nil || !c.lower.Issue(c.wbQ.Front()) {
			return
		}
		c.wbQ.PopFront()
		c.stats.Writebacks++
	}
}

func (c *Cache) process() {
	if c.blockedHead() {
		c.stats.MSHRFullEvents++ // the retry this cycle would refuse again
		return
	}
	ports := c.cfg.Ports
	for ports > 0 && c.inQ.Len() > 0 {
		q := c.inQ.Front()
		if q.ready > c.cycle {
			return // head not ready; FIFO models lookup pipeline
		}
		first := !q.counted
		q.counted = true
		if !c.lookup(&q.req, first) {
			return // structural stall (MSHR full / lower busy): head blocks
		}
		c.inQ.PopFront()
		ports--
	}
}

// lookup performs the tag check; returns false when the request could not be
// handled this cycle and should block the input queue. first is false on
// retries of a structurally-stalled head, so stats count each request once.
// req points into the input queue head and is not retained.
func (c *Cache) lookup(req *mem.Request, first bool) bool {
	set, tag := c.index(req.Addr)
	base := set * c.cfg.Ways

	// Writeback from above: update in place or install dirty; no response.
	if req.Type == mem.Writeback {
		if w := c.findWay(set, tag); w >= 0 {
			c.dirtyBits[set] |= 1 << uint(w)
			c.policy.OnHit(set, w)
			return true
		}
		c.install(req, true)
		return true
	}

	isDemand := req.Type == mem.Load || req.Type == mem.Store
	if first {
		if req.Type == mem.Store {
			c.stats.StoreAccesses++
		} else if req.Type == mem.Load {
			c.stats.DemandAccesses++
		}
	}

	if w := c.findWay(set, tag); w >= 0 {
		// Hit.
		c.trace("hit", req)
		c.policy.OnHit(set, w)
		wbit := uint64(1) << uint(w)
		hitPF := c.pfBits[set]&wbit != 0
		trig := c.trigger[base+w]
		if isDemand && hitPF {
			c.pfBits[set] &^= wbit
			c.stats.PFUseful++
		}
		if req.Type == mem.Store {
			c.dirtyBits[set] |= wbit
		}
		if req.Type == mem.Load || req.Type == mem.Store {
			// Stores respond too: a lower-level store hit must still fill
			// the upper level whose MSHR forwarded it (write-allocate); the
			// core-level sink ignores store responses.
			if req.Type == mem.Load {
				c.stats.DemandHits++
			}
			c.respond(req, c.cfg.Level, c.cycle, hitPF, false)
		}
		if req.Type == mem.Prefetch {
			// Present here; still propagate upward so higher levels (down to
			// the request's fill level) install the line.
			c.respond(req, c.cfg.Level, c.cycle, false, false)
		}
		if c.onAccess != nil && isDemand {
			c.accessEv = AccessEvent{Req: *req, Hit: true, Cycle: c.cycle,
				HitPrefetchedLine: hitPF, TriggerIP: trig}
			c.onAccess(&c.accessEv)
		}
		return true
	}

	// Miss.
	if first {
		if req.Type == mem.Load {
			c.stats.DemandMisses++
		}
		if c.onAccess != nil && isDemand {
			c.accessEv = AccessEvent{Req: *req, Hit: false, Cycle: c.cycle}
			c.onAccess(&c.accessEv)
		}
	}

	// MSHR merge? The bitmap walk visits entries in the same ascending order
	// as the old first-match entry scan.
	lineAddr := req.Addr.Line()
	if i := c.mshrFind(lineAddr); i >= 0 {
		c.trace("mshr-merge", req)
		if req.Type == mem.Prefetch && !req.Owned {
			return true // already being fetched; fresh prefetch discarded
		}
		if req.Type != mem.Prefetch && c.mshrPF.Test(i) {
			c.stats.PFLate++ // demand caught an in-flight prefetch: late
		}
		// Demands and owned prefetches (an upper-level MSHR depends on
		// the fill coming back up) wait for the outstanding fill.
		c.mshrWait[i] = append(c.mshrWait[i], waiter{req: *req, arrived: c.cycle}) //clipvet:allocok MSHR waiter lists are slab-carved; overflow migration is rare
		return true
	}

	// Allocate MSHR at the lowest free slot.
	idx := c.mshrValid.FirstClear()
	if idx < 0 {
		c.stats.MSHRFullEvents++
		if req.Type == mem.Prefetch && !req.Owned {
			c.trace("mshr-full-drop-pf", req)
			c.stats.PFDropped++
			return true // drop prefetch, don't block
		}
		c.trace("mshr-full-block", req)
		c.blocked = true
		return false
	}
	if c.lower == nil {
		panic("cache " + c.cfg.Name + ": miss with no lower level")
	}
	c.down = *req
	c.down.Addr = lineAddr
	if c.down.Type == mem.Prefetch {
		c.down.Owned = true // this MSHR now depends on the fill returning
	}
	//clipvet:staged only the serially-ticked LLC has DRAM as lower; tile-phase L1/L2 miss into the staged l2Lower
	if !c.lower.Issue(&c.down) {
		if req.Type == mem.Prefetch && !req.Owned {
			c.trace("lower-busy-drop-pf", req)
			c.stats.PFDropped++
			return true
		}
		c.trace("lower-busy-block", req)
		return false // lower busy: retry next cycle
	}
	c.trace("mshr-alloc", req)
	if invariant.Enabled {
		invariant.Check(!c.mshrValid.Test(idx) && len(c.mshrWait[idx]) == 0,
			"cache %s: allocating live MSHR %d (line %x, %d waiters)",
			c.cfg.Name, idx, uint64(c.mshrLine[idx]), len(c.mshrWait[idx]))
	}
	c.mshrValid.Set(idx)
	c.mshrLine[idx] = lineAddr
	c.mshrFirst[idx] = c.cycle
	c.mshrPfReq[idx] = *req
	if req.Type == mem.Prefetch {
		c.mshrPF.Set(idx)
	} else {
		c.mshrPF.Clear(idx)
	}
	if invariant.Enabled {
		invariant.Check(c.MSHRInUse() <= c.cfg.MSHRs,
			"cache %s: MSHR occupancy %d exceeds capacity %d",
			c.cfg.Name, c.MSHRInUse(), c.cfg.MSHRs)
	}
	if req.Type != mem.Prefetch {
		c.mshrWait[idx] = append(c.mshrWait[idx], waiter{req: *req, arrived: c.cycle}) //clipvet:allocok MSHR waiter lists are slab-carved; overflow migration is rare
	} else {
		c.stats.PFIssued++
	}
	return true
}

// Fill delivers a response from the lower level: install the line, wake
// MSHR waiters. The response is consumed during the call.
//
//clipvet:hotpath
func (c *Cache) Fill(resp *mem.Response) {
	c.blocked = false // a freed MSHR or an installed line may unblock the head
	lineAddr := resp.Req.Addr.Line()
	c.trace("fill", &resp.Req)
	if i := c.mshrFind(lineAddr); i >= 0 {
		// A prefetch-allocated MSHR that gathered demand waiters delivers to
		// them; the fill is then counted as late-useful at respond time.
		isPrefetch := c.mshrPF.Test(i)
		if isPrefetch {
			c.stats.PFFills++
		}
		c.install(&resp.Req, false)
		waiters := c.mshrWait[i]
		if isPrefetch && len(waiters) > 0 {
			// Demand(s) merged into this prefetch: the line is demand-touched
			// already.
			c.touchAsDemand(lineAddr)
		}
		for wi := range waiters {
			w := &waiters[wi]
			if w.req.Type == mem.Store {
				c.setDirty(lineAddr)
			}
			if w.req.Type == mem.Load {
				// Demand miss latency measured per waiter from its own
				// arrival — covering both plain misses and demands that
				// merged into an in-flight prefetch.
				c.stats.DemandMissLatency.Add(c.cycle - w.arrived)
			}
		}
		for wi := range waiters {
			c.respond(&waiters[wi].req, resp.ServedBy, c.cycle, isPrefetch, isPrefetch)
		}
		if isPrefetch {
			// Propagate the prefetch fill toward its target level.
			c.respond(&c.mshrPfReq[i], resp.ServedBy, c.cycle, false, false)
		}
		c.mshrValid.Clear(i)
		c.mshrWait[i] = c.mshrWait[i][:0]
		if invariant.Enabled {
			// A line must never be tracked by two MSHRs: merges are required
			// to land on the existing entry.
			for j := c.mshrValid.First(); j >= 0; j = c.mshrValid.Next(j + 1) {
				invariant.Check(c.mshrLine[j] != lineAddr,
					"cache %s: duplicate MSHR %d for line %x", c.cfg.Name, j, uint64(lineAddr))
			}
		}
		return
	}
	// No MSHR (e.g. a prefetch filled below our allocation point): install
	// anyway if the fill level warrants it.
	c.stats.OrphanFills++
	c.install(&resp.Req, false)
	if resp.Req.Type == mem.Prefetch {
		c.stats.PFFills++
	}
}

// setDirty marks a present line dirty (store data arrived with the fill).
func (c *Cache) setDirty(addr mem.Addr) {
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.dirtyBits[set] |= 1 << uint(w)
	}
}

// touchAsDemand clears the prefetch bit after a merged-demand fill.
func (c *Cache) touchAsDemand(addr mem.Addr) {
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.pfBits[set] &^= 1 << uint(w)
	}
}

// install places a line, evicting as needed. req is read, never retained.
func (c *Cache) install(req *mem.Request, dirty bool) {
	set, tag := c.index(req.Addr)
	base := set * c.cfg.Ways

	// Already present (races between merged fills): update only.
	if w := c.findWay(set, tag); w >= 0 {
		if dirty {
			c.dirtyBits[set] |= 1 << uint(w)
		}
		return
	}
	// Lowest invalid way, if any — a TrailingZeros64 pick off the valid
	// bitmap (fills always take the lowest free way, exactly the order of
	// the per-way tag==0 scan this replaces).
	way := -1
	if free := ^c.validBits[set] & waysMask(c.cfg.Ways); free != 0 {
		way = bits.TrailingZeros64(free)
	}
	if way < 0 {
		way = c.policy.Victim(set)
		wbit := uint64(1) << uint(way)
		c.stats.Evictions++
		if c.pfBits[set]&wbit != 0 {
			c.stats.PFPolluting++
			if c.onPFEvict != nil {
				vLine := (c.tags[base+way]>>1)<<c.setShift | uint64(set)
				c.onPFEvict(c.trigger[base+way], mem.Addr(vLine<<mem.LineShift))
			}
		}
		if c.dirtyBits[set]&wbit != 0 {
			// Reconstruct victim address from set+tag.
			vLine := (c.tags[base+way]>>1)<<c.setShift | uint64(set)
			c.wbQ.Push(mem.Request{
				Addr: mem.Addr(vLine << mem.LineShift),
				Type: mem.Writeback, Core: req.Core, IssueCycle: c.cycle,
			})
		}
	}
	wbit := uint64(1) << uint(way)
	c.tags[base+way] = tag<<1 | 1
	c.validBits[set] |= wbit
	c.trigger[base+way] = req.TriggerIP
	if dirty {
		c.dirtyBits[set] |= wbit
	} else {
		c.dirtyBits[set] &^= wbit
	}
	if req.Type == mem.Prefetch {
		c.pfBits[set] |= wbit
	} else {
		c.pfBits[set] &^= wbit
	}
	c.policy.OnFill(set, way, req)
}

// respond queues a response to the level above, writing it directly into
// the response queue's next slot: the caller passes the request pointer and
// the scalar fields instead of a built-up mem.Response, so the only copy is
// the one unavoidable Request move into the queue (the by-value path this
// replaces built an 80-byte Response temp and then duff-copied it again on
// append).
//
// Store (write-allocate) responses must still propagate upward so the
// upper levels fill and wake their MSHRs — demand loads merged behind a
// store miss depend on it. The core-level sink ignores them (stores
// complete through the store buffer, ROBIndex < 0).
//
//clipvet:hotpath
func (c *Cache) respond(req *mem.Request, servedBy mem.Level, done uint64, wasPF, latePF bool) {
	if req.Type == mem.Prefetch && req.FillLevel >= c.cfg.Level {
		return // reached (or passed) its fill level: terminate
	}
	n := len(c.respQ)
	if n < cap(c.respQ) {
		c.respQ = c.respQ[:n+1]
	} else {
		c.respQ = append(c.respQ, mem.Response{}) //clipvet:allocok respQ retains capacity across ticks
	}
	r := &c.respQ[n]
	r.Req = *req
	r.ServedBy = servedBy
	r.DoneCycle = done
	r.WasPrefetch = wasPF
	r.LatePF = latePF
}

func (c *Cache) deliver() {
	if c.onResp == nil {
		c.respQ = c.respQ[:0]
		return
	}
	for i := range c.respQ {
		c.onResp(&c.respQ[i])
	}
	c.respQ = c.respQ[:0]
}
