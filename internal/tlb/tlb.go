// Package tlb models the address-translation hierarchy of the baseline
// (Table 3): a 64-entry 4-way L1 DTLB with 1-cycle latency, a 2048-entry
// 16-way shared L2 TLB (STLB) with 8-cycle latency, and a fixed-cost page
// walk for STLB misses. Translation latency is added in front of the L1D
// access, which is where it bites loads.
package tlb

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/stats"
)

// Config sizes one TLB level.
type Config struct {
	Entries int
	Ways    int
	Latency uint64
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: bad geometry %+v", c)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: sets (%d) must be a power of two", sets)
	}
	return nil
}

// HierarchyConfig combines the paper's DTLB + STLB + page walker.
type HierarchyConfig struct {
	DTLB Config
	STLB Config
	// WalkLatency is the page-table walk cost on an STLB miss (cycles).
	WalkLatency uint64
}

// DefaultConfig matches Table 3. The DTLB does NOT scale with div: its job
// is covering the *concurrent* working pages (one per active stream), and
// stream counts are a workload property, not a capacity one — an 8-entry
// DTLB would thrash on any 9-stream loop regardless of cache scaling. Only
// the reach-oriented STLB scales (with a generous floor).
func DefaultConfig(div int) HierarchyConfig {
	if div < 1 {
		div = 1
	}
	d := Config{Entries: 64, Ways: 4, Latency: 1}
	stlbEntries := 2048 / div
	if stlbEntries < 256 {
		stlbEntries = 256
	}
	// Round sets to a power of two at 16 ways.
	sets := stlbEntries / 16
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	s := Config{Entries: p * 16, Ways: 16, Latency: 8}
	return HierarchyConfig{DTLB: d, STLB: s, WalkLatency: 60}
}

// Stats counts translation outcomes.
type Stats struct {
	Accesses  uint64
	DTLBHits  uint64
	STLBHits  uint64
	Walks     uint64
	WalkDelay stats.LatencyAcc
}

// DTLBHitRate returns first-level hit rate.
func (s *Stats) DTLBHitRate() float64 { return stats.Ratio(s.DTLBHits, s.Accesses) }

type entry struct {
	valid bool
	tag   uint64
	stamp uint64
}

// tlb is one set-associative translation buffer (LRU).
type tlb struct {
	sets, ways int
	entries    []entry
	clock      uint64
}

func newTLB(c Config) *tlb {
	sets := c.Entries / c.Ways
	return &tlb{sets: sets, ways: c.Ways, entries: make([]entry, c.Entries)}
}

func (t *tlb) index(page uint64) (set int, tag uint64) {
	// Hash the set index: synthetic workloads allocate their arrays at
	// large aligned boundaries, so plain low-bit indexing piles every
	// concurrent stream's page into one set. Hashing spreads them the way
	// real (higher-associativity) TLBs and unaligned heaps do.
	h := mem.Mix64(page)
	return int(h & uint64(t.sets-1)), page
}

// lookup probes for page; hit updates recency.
func (t *tlb) lookup(page uint64) bool {
	set, tag := t.index(page)
	_ = tag
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.tag == tag {
			t.clock++
			e.stamp = t.clock
			return true
		}
	}
	return false
}

// insert installs page, evicting LRU.
func (t *tlb) insert(page uint64) {
	set, tag := t.index(page)
	base := set * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if e.stamp < t.entries[victim].stamp {
			victim = base + w
		}
	}
	t.clock++
	t.entries[victim] = entry{valid: true, tag: tag, stamp: t.clock}
}

// Hierarchy is one core's DTLB backed by the shared STLB.
type Hierarchy struct {
	cfg   HierarchyConfig
	dtlb  *tlb
	stlb  *tlb // shared in hardware; modelled per-core for simplicity
	stats Stats
}

// New builds a translation hierarchy.
func New(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.DTLB.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.STLB.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, dtlb: newTLB(cfg.DTLB), stlb: newTLB(cfg.STLB)}, nil
}

// MustNew panics on config errors.
func MustNew(cfg HierarchyConfig) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns live counters.
func (h *Hierarchy) Stats() *Stats { return &h.stats }

// Translate returns the extra cycles the access at addr spends on address
// translation: 0 for a DTLB hit (the 1-cycle DTLB runs in parallel with the
// L1D tag lookup), the STLB latency on a DTLB miss, and STLB latency plus
// the page-walk cost on an STLB miss. The translation is installed on the
// way back, as hardware does.
func (h *Hierarchy) Translate(addr mem.Addr) uint64 {
	page := addr.PageID()
	h.stats.Accesses++
	if h.dtlb.lookup(page) {
		h.stats.DTLBHits++
		return 0
	}
	if h.stlb.lookup(page) {
		h.stats.STLBHits++
		h.dtlb.insert(page)
		return h.cfg.STLB.Latency
	}
	h.stats.Walks++
	delay := h.cfg.STLB.Latency + h.cfg.WalkLatency
	h.stats.WalkDelay.Add(delay)
	h.stlb.insert(page)
	h.dtlb.insert(page)
	return delay
}
