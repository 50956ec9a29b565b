package sim

import (
	"math/bits"
	"sync"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/noc"
)

// This file is the tile phase of the two-phase tick. A tile is everything
// private to one core — the core itself, its port, prefetch queue, L1D, L2,
// front-end models and per-core mechanisms (prefetcher, CLIP, criticality
// predictors, Hermes). Tiles tick concurrently on the shard pool; every
// cross-tile side effect (NoC injection, direct-DRAM reads, global counters)
// is routed into the tile's stage and committed serially afterwards (see
// commit.go), so the tile phase reads shared state but never writes it.

// directDRAMDepth bounds each tile's staged direct-DRAM queue (the Hermes
// bypass path). A full queue backpressures the L1 miss path exactly like a
// full DRAM read queue did when the bypass issued synchronously.
const directDRAMDepth = 16

// stagedRead is one queued direct-DRAM read: a Hermes bypass load (bypass
// true, registered in hermesBypass when it reaches the controller) or a
// mispredicted-probe waste read (a droppable low-priority prefetch).
type stagedRead struct {
	req    mem.Request
	bypass bool
}

// tileStage is one tile's staging buffer. During the tile phase it is
// written only by its own tile; the commit phase drains all stages in
// ascending core index — the order the serial per-core loop produces — and
// folds the deltas into the shared counters.
type tileStage struct {
	// sends holds this cycle's NoC injections (L2 misses to LLC slices).
	sends noc.Staging
	// dramQ is the persistent direct-DRAM queue of the Hermes bypass; the
	// head retries a full controller queue on later cycles.
	dramQ mem.Ring[stagedRead]
	// ticked and finished are this cycle's deltas to coresTicked/finished.
	ticked   int
	finished int
	// Pad to a cache-line multiple so adjacent tiles' hot counters do not
	// false-share under the parallel tile phase.
	_ [32]byte
}

// markTiles fills tileRun with the tiles visited this cycle: all of them
// with skipping off, otherwise those whose due cycle has come. Under
// clipdebug a passed-over tile re-derives its quiescence from its
// components.
func (s *System) markTiles(cy uint64) {
	clear(s.tileRun)
	for i, d := range s.tileDue {
		if !s.skip || d <= cy {
			s.tileRun[i>>6] |= 1 << uint(i&63)
		} else if invariant.Enabled {
			c := s.cores[i]
			invariant.Check(!c.Woken() && c.NextEvent(cy) > cy &&
				s.ports[i].NextEvent(cy) > cy && s.pfQ[i].Len() == 0 &&
				s.l1d[i].NextEvent(cy) > cy && s.l2[i].NextEvent(cy) > cy,
				"sim: tile %d passed over at cycle %d (due %d) with work pending",
				i, cy, d)
		}
	}
	for _, w := range s.tileRun {
		s.tileVisits += uint64(bits.OnesCount64(w))
	}
}

// tickTile advances one tile by one cycle, after catching it up on the
// idle cycles since its last visit. Safe to run concurrently across
// distinct tiles: all writes land in tile-indexed state or s.stage[i], and
// the only shared structures touched are read-only this phase (cache Probe,
// DRAM utilization, the global cycle).
//
//clipvet:tilephase
func (s *System) tickTile(i int, cy uint64) {
	s.syncTile(i, cy)
	c := s.cores[i]
	if s.skip && s.coreNext[i] > cy && !c.Woken() {
		c.SkipCycles(cy, 1)
	} else {
		c.Tick(cy)
		s.stage[i].ticked++
		if s.skip {
			s.coreNext[i] = c.NextEvent(cy + 1)
		}
	}
	s.ports[i].Tick(cy)
	s.drainPFQ(i)
	if l1 := s.l1d[i]; !s.skip || l1.NextEvent(cy) <= cy {
		l1.Tick(cy)
	} else {
		l1.SkipTick(cy)
	}
	if l2 := s.l2[i]; !s.skip || l2.NextEvent(cy) <= cy {
		l2.Tick(cy)
	} else {
		l2.SkipTick(cy)
	}
	s.tileAt[i] = cy + 1
	if s.skip {
		s.tileDue[i] = s.tileNext(i, cy+1)
	}
}

// tileNext returns the earliest cycle >= now at which tile i has work: a
// woken core or a queued prefetch makes it now, otherwise the minimum of
// the core's cached horizon and the port's and caches' NextEvent. The
// core is asked first: a core retrying a refused load issue keeps its tile
// due every cycle, and then the port and caches need not be asked.
func (s *System) tileNext(i int, now uint64) uint64 {
	due := s.coreNext[i]
	if due <= now || s.cores[i].Woken() || s.pfQ[i].Len() > 0 {
		return now
	}
	if e := s.ports[i].NextEvent(now); e < due {
		due = e
	}
	if e := s.l1d[i].NextEvent(now); e < due {
		due = e
	}
	if e := s.l2[i].NextEvent(now); e < due {
		due = e
	}
	return due
}

// syncTile applies tile i's idle accounting for the cycles [tileAt[i], to).
// The tile was not due in them, so one bulk call per component stands in
// for the per-cycle skips a visit would have made (the port and the empty
// prefetch queue keep no per-cycle accounting).
func (s *System) syncTile(i int, to uint64) {
	at := s.tileAt[i]
	if at >= to {
		return
	}
	s.cores[i].SkipCycles(at, to-at)
	s.l1d[i].SkipTick(to - 1)
	s.l2[i].SkipTick(to - 1)
	s.tileAt[i] = to
}

// wakeTile prepares tile i for a mutation from outside the tile phase: it
// catches the tile up to cycle to (a Fill stamps the cache's clock) and
// makes it due no later than to.
func (s *System) wakeTile(i int, to uint64) {
	s.syncTile(i, to)
	if s.tileDue[i] > to {
		s.tileDue[i] = to
	}
}

// drainPFQ issues queued prefetches while the target caches accept them
// (up to two per cycle, the prefetcher's issue bandwidth). The queue is a
// ring, so draining reuses the buffer instead of resizing the head away.
//
//clipvet:tilephase
func (s *System) drainPFQ(i int) {
	q := &s.pfQ[i]
	issued := 0
	for q.Len() > 0 && issued < 2 {
		e := q.Front()
		target := s.l1d[i]
		if e.toL2 {
			target = s.l2[i]
		}
		if !target.TryIssue(&e.req) {
			break
		}
		q.PopFront()
		issued++
		s.pfIssued[i]++
	}
}

// runTiles executes the tile phase over the tiles in tileRun: on the shard
// pool when one is configured, inline in ascending core order otherwise.
// Both paths run the identical per-tile code against the identical staging
// buffers, so serial and parallel execution are byte-identical by
// construction.
func (s *System) runTiles(cy uint64) {
	if s.pool != nil {
		s.pool.run(cy)
		return
	}
	for wi, w := range s.tileRun {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			s.tickTile(i, cy)
		}
	}
}

// shardPool runs the tile phase on a fixed set of worker goroutines, each
// owning a static contiguous range of tiles (the deterministic partition —
// though determinism comes from staging, not from the partition). Workers
// persist across cycles and park on their start channel between phases.
type shardPool struct {
	start []chan uint64
	wg    sync.WaitGroup
	// panics collects per-worker panic values; run re-raises the first one
	// after the barrier so a tile-phase failure surfaces on the caller.
	panics []any
}

// newShardPool starts workers goroutines over s's tiles. workers must be in
// [2, len(s.cores)].
func newShardPool(s *System, workers int) *shardPool {
	n := len(s.cores)
	p := &shardPool{start: make([]chan uint64, workers), panics: make([]any, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		ch := make(chan uint64, 1)
		p.start[w] = ch
		go p.work(s, w, lo, hi, ch)
	}
	return p
}

func (p *shardPool) work(s *System, w, lo, hi int, start <-chan uint64) {
	for cy := range start {
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.panics[w] = r
				}
				p.wg.Done()
			}()
			for i := lo; i < hi; i++ {
				if s.tileRun[i>>6]&(1<<uint(i&63)) != 0 {
					s.tickTile(i, cy)
				}
			}
		}()
	}
}

// run executes one tile phase and blocks until every worker's range is done.
// The WaitGroup barrier publishes all tile writes to the caller, so the
// commit phase reads the stages without further synchronization.
func (p *shardPool) run(cy uint64) {
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- cy
	}
	p.wg.Wait()
	for w, r := range p.panics {
		if r != nil {
			// Re-raise the original value (not a wrapper) so a tile-phase
			// panic is indistinguishable from the serial loop's — recover
			// handlers keyed on the value type (invariant.Violation) work
			// identically in both modes.
			p.panics[w] = nil
			panic(r)
		}
	}
}

// stop terminates the workers. The pool must not be used afterwards.
func (p *shardPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}
