package sim

import (
	"fmt"

	"clip/internal/cache"
	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/criticality"
	"clip/internal/dram"
	"clip/internal/hermes"
	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/noc"
	"clip/internal/prefetch"
	"clip/internal/throttle"
	"clip/internal/tlb"
	"clip/internal/trace"
)

// System is one assembled simulation instance.
type System struct {
	cfg Config

	cores []*cpu.Core
	l1d   []*cache.Cache
	l2    []*cache.Cache
	llc   []*cache.Cache // one slice per core/node
	mesh  *noc.Mesh
	dram  *dram.DRAM

	ports   []*corePort
	icaches []*icache
	tlbs    []*tlb.Hierarchy
	dynClip *dynamicClip

	pf        []prefetch.Prefetcher
	clip      []*core.CLIP
	critPred  []criticality.Predictor // per-core filter predictor (Fig 5)
	scored    [][]scoredPredictor     // per-core observation predictors (Fig 4)
	throttler []throttle.Throttler
	hermes    []*hermes.Predictor

	// dramPending holds DRAM responses until their DoneCycle. dramNext
	// caches the minimum pending DoneCycle so the per-cycle delivery pass
	// (and the skip horizon) need not rescan the list.
	dramPending []mem.Response
	dramNext    uint64
	// llcRetry holds requests whose LLC slice refused them at NoC delivery.
	llcRetry []mem.Ring[mem.Request]
	// hermesBypass marks in-flight direct-to-DRAM loads: key core<<48^line.
	hermesBypass map[uint64]int
	// hermesHold delays bypassed fills by the on-chip portion Hermes still
	// pays (tag/coherence checks, fill path): the bypass removes the cache
	// *walk* from the DRAM access's start, not the chip from its end.
	hermesHold []mem.Response
	// hermesNext caches the minimum held DoneCycle (mem.NoEvent when empty).
	hermesNext uint64

	epochPrev []epochSnapshot

	// pfGenerated counts prefetch candidates produced by the prefetcher;
	// pfIssued counts those that survived filtering (Figure 16's ratio).
	pfGenerated []uint64
	pfIssued    []uint64

	// pfQ is the per-core prefetch queue (ChampSim's PQ): filtered
	// candidates wait here for cache port/queue space instead of being
	// dropped on first refusal, sustaining prefetch pressure.
	pfQ []mem.Ring[pfEntry]

	cycle        uint64
	measureStart uint64
	attachL2     bool
	// warmed flips at the warmup barrier; it is part of serialized state so
	// a snapshot taken mid-warmup restores into the right loop phase.
	warmed bool

	// skip enables event-horizon cycle skipping (Config.DisableSkip off):
	// quiescent components are tick-skipped every cycle, and Run jumps the
	// global clock over windows in which no component has work.
	skip bool
	// coreNext caches each core's NextEvent horizon; a core is tick-skipped
	// while the horizon is in the future and no load completion woke it.
	coreNext []uint64
	// coresTicked counts cores that took a real Tick this cycle — the cheap
	// gate deciding whether a global jump is even worth evaluating.
	coresTicked int
	// tileDue and llcDue hold the earliest cycle at which each tile and
	// each LLC slice has work; with skipping on, Tick visits only the ones
	// due. tileAt and llcAt hold the first cycle whose per-cycle accounting
	// the tile or slice has not applied yet: an idle stretch is applied in
	// one bulk call when the component is next visited or touched from
	// outside (syncTile, syncSlice). None of the four is serialized — a
	// synced system has every at equal to cycle, and LoadState marks
	// everything due at the restored cycle.
	tileDue, tileAt []uint64
	llcDue, llcAt   []uint64
	// tileRun is this cycle's visited-tile bitmap, built serially before
	// the tile phase and read-only to the shard workers. dramWait marks the
	// tiles whose staged direct-DRAM queue still holds reads. Commit visits
	// tileRun|dramWait.
	tileRun, dramWait []uint64
	// tileVisits and sliceVisits count tile and LLC-slice visits: the
	// deterministic work measure of sparse ticking (not part of Result).
	tileVisits, sliceVisits uint64
	// finished counts cores whose instruction budget is exhausted,
	// maintained by cpu.Core OnFinished events (no per-cycle scan).
	finished int
	// nextThrottle is the next throttler-epoch deadline (unused when no
	// throttler is configured).
	nextThrottle uint64

	// stage holds one staging buffer per tile: the tile phase writes its own
	// entry only, and the commit phase drains them in ascending core index
	// (tile.go / commit.go).
	stage []tileStage
	// pool runs the tile phase on ShardWorkers goroutines; nil ticks tiles
	// inline (the serial mode — same code path, same staging).
	pool *shardPool
}

type scoredPredictor struct {
	pred  criticality.Predictor
	score criticality.Score
}

// pfEntry is one queued prefetch and its injection cache.
type pfEntry struct {
	req  mem.Request
	toL2 bool
}

type epochSnapshot struct {
	pfFills, pfUseful, pfLate, pfPolluting, misses, retired uint64
}

// NewSystem builds and wires a system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores()
	s := &System{
		cfg:          cfg,
		mesh:         noc.MustNew(meshConfig(n, cfg.NoCCriticalPriority)),
		dram:         dram.MustNew(cfg.dramConfig()),
		dramNext:     mem.NoEvent,
		hermesNext:   mem.NoEvent,
		llcRetry:     make([]mem.Ring[mem.Request], n),
		pfQ:          make([]mem.Ring[pfEntry], n),
		stage:        make([]tileStage, n),
		hermesBypass: map[uint64]int{},
		epochPrev:    make([]epochSnapshot, n),
		attachL2:     prefetchAttachL2(cfg.Prefetcher),
		warmed:       cfg.WarmupInstr == 0,
	}

	// DRAM responses are held until their DoneCycle, then routed to the
	// owning LLC slice (or to L1 directly for Hermes bypass loads).
	s.dram.OnResponse(func(r *mem.Response) {
		if r.DoneCycle < s.dramNext {
			s.dramNext = r.DoneCycle //clipvet:staged fires inside DRAM.Tick, serial commit phase
		}
		s.dramPending = append(s.dramPending, *r) //clipvet:staged commit-phase response staging buffer
	})

	// All hot mesh traffic is payload packets dispatched here by kind; the
	// per-response closures this replaces allocated on every LLC round trip.
	s.mesh.OnDeliver(s.onMeshDeliver)

	// Build caches bottom-up per core.
	for i := 0; i < n; i++ {
		i := i
		llcCfg := cache.Config{
			Name: fmt.Sprintf("llc%d", i), Level: mem.LevelLLC,
			Sets: cfg.LLC.Sets, Ways: cfg.LLC.Ways, Latency: cfg.LLC.Latency,
			MSHRs: cfg.LLC.MSHRs, Policy: cfg.LLC.Policy, Ports: cfg.LLC.Ports,
			InQ: cfg.LLC.InQ,
		}
		llc := cache.MustNew(llcCfg, s.dram)
		// LLC responses travel the mesh back to the requesting core's L2 as
		// payload packets (kind pktLLCResp).
		llc.OnResponse(func(r *mem.Response) {
			//clipvet:staged fires inside the LLC's serial commit-phase Tick
			s.mesh.SendPayload(i, r.Req.Core, noc.FlitsPerData, s.packetHigh(&r.Req), pktLLCResp, r)
		})
		s.llc = append(s.llc, llc)
	}

	for i := 0; i < n; i++ {
		i := i
		l2Cfg := cache.Config{
			Name: fmt.Sprintf("l2-%d", i), Level: mem.LevelL2,
			Sets: cfg.L2.Sets, Ways: cfg.L2.Ways, Latency: cfg.L2.Latency,
			MSHRs: cfg.L2.MSHRs, Policy: cfg.L2.Policy, Ports: cfg.L2.Ports,
			InQ: cfg.L2.InQ,
		}
		l2 := cache.MustNew(l2Cfg, &l2Lower{s: s, core: i})
		l2.OnResponse(func(r *mem.Response) { s.l1d[i].Fill(r) })
		s.l2 = append(s.l2, l2)
	}

	for i := 0; i < n; i++ {
		i := i
		l1Cfg := cache.Config{
			Name: fmt.Sprintf("l1d-%d", i), Level: mem.LevelL1,
			Sets: cfg.L1D.Sets, Ways: cfg.L1D.Ways, Latency: cfg.L1D.Latency,
			MSHRs: cfg.L1D.MSHRs, Policy: cfg.L1D.Policy, Ports: cfg.L1D.Ports,
			InQ: cfg.L1D.InQ,
		}
		l1 := cache.MustNew(l1Cfg, &l1Lower{s: s, core: i})
		l1.OnResponse(func(r *mem.Response) {
			if r.Req.ROBIndex >= 0 && r.Req.Core == i {
				s.cores[i].CompleteLoad(r)
			}
		})
		s.l1d = append(s.l1d, l1)
	}

	// Front-end models: per-core TLB hierarchy and L1I.
	div := cfg.ScaleDivisor
	if div < 1 {
		div = 1
	}
	for i := 0; i < n; i++ {
		var th *tlb.Hierarchy
		if cfg.EnableTLB {
			h, err := tlb.New(tlb.DefaultConfig(div))
			if err != nil {
				return nil, err
			}
			th = h
		}
		s.tlbs = append(s.tlbs, th)
		s.ports = append(s.ports, &corePort{s: s, core: i, tlbs: th})
		if cfg.EnableL1I {
			// Table 3: 32KB 8-way L1I (512 lines), scaled like the L1D; a
			// miss costs the on-chip round trip to where code resides.
			sets := 64 / max(1, div/2)
			if sets < 8 {
				sets = 8
			}
			s.icaches = append(s.icaches, newICache(sets, 8,
				cfg.L2.Latency+cfg.LLC.Latency))
		} else {
			s.icaches = append(s.icaches, nil)
		}
	}
	if cfg.DynamicCLIP {
		s.dynClip = &dynamicClip{active: true}
	}

	// Cores with their workloads.
	scale := cfg.TraceScale()
	for i := 0; i < n; i++ {
		tcfg, err := trace.Lookup(cfg.Workload[i], scale)
		if err != nil {
			return nil, err
		}
		tcfg.Seed = mem.HashString(cfg.Workload[i]) ^ cfg.Seed ^ uint64(i)<<32
		// SPEC-rate semantics: each core runs in a private address space.
		tcfg.AddrOffset = mem.Addr(uint64(i+1) << 42)
		gen, err := trace.Shared(tcfg)
		if err != nil {
			return nil, err
		}
		budget := cfg.WarmupInstr
		if budget == 0 {
			budget = cfg.InstrPerCore
		}
		c, err := cpu.New(i, cfg.CPU, gen, s.ports[i], budget)
		if err != nil {
			return nil, err
		}
		if ic := s.icaches[i]; ic != nil {
			c.SetFetchChecker(ic.fetch)
		}
		s.cores = append(s.cores, c)
	}

	if err := s.attachMechanisms(); err != nil {
		return nil, err
	}

	// Size every per-tile buffer up front so the steady-state tile phase
	// stages without allocating: NoC injections are bounded by the L2's
	// per-cycle issue capability, the direct-DRAM queue by directDRAMDepth,
	// and the retry/prefetch rings by their drain rates.
	for i := range s.stage {
		s.stage[i].sends.Grow(32)
		s.stage[i].dramQ.Grow(directDRAMDepth)
	}
	for i := 0; i < n; i++ {
		s.llcRetry[i].Grow(16)
		s.pfQ[i].Grow(64)
	}

	s.skip = !cfg.DisableSkip
	s.coreNext = make([]uint64, n)
	s.tileDue, s.tileAt = make([]uint64, n), make([]uint64, n)
	s.llcDue, s.llcAt = make([]uint64, n), make([]uint64, n)
	s.tileRun, s.dramWait = make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
	for i, c := range s.cores {
		i := i
		// A core finishing its budget fires during the (possibly concurrent)
		// tile phase; the delta folds into s.finished at commit.
		c.OnFinished(func() { s.stage[i].finished++ })
	}
	if s.throttler != nil {
		s.nextThrottle = s.throttleEpoch()
	}
	if w := cfg.ShardWorkers; w > 1 {
		if w > n {
			w = n
		}
		if w > 1 {
			s.pool = newShardPool(s, w)
		}
	}
	return s, nil
}

// Close releases the shard-worker goroutines (a no-op for serial systems).
// Run closes the system itself; callers driving Tick directly on a
// ShardWorkers system should defer it.
func (s *System) Close() {
	if s.pool != nil {
		s.pool.stop()
		s.pool = nil
	}
}

// throttleEpoch returns the throttler epoch length.
func (s *System) throttleEpoch() uint64 {
	if s.cfg.ThrottleEpoch != 0 {
		return s.cfg.ThrottleEpoch
	}
	return 4096
}

func meshConfig(nodes int, critPrio bool) noc.Config {
	c := noc.DefaultConfig(nodes)
	c.CriticalPriority = critPrio
	return c
}

// Payload-packet kinds carried over the mesh (noc.Mesh.SendPayload).
const (
	pktLLCReq  uint8 = iota // L2 miss travelling to its LLC slice (Response.Req)
	pktLLCResp              // LLC response returning to the requesting core's L2
)

// onMeshDeliver routes payload packets at their destination node. The
// response points into the mesh's packet slab and is consumed synchronously.
//
//clipvet:slab
func (s *System) onMeshDeliver(kind uint8, dst int, r *mem.Response, cycle uint64) {
	switch kind {
	case pktLLCResp:
		// The tile phase of this cycle is over: the L2 fills as of cycle
		// and ticks again next cycle.
		s.wakeTile(dst, cycle+1)
		r.DoneCycle = cycle
		s.l2[dst].Fill(r)
	default: // pktLLCReq
		// The slices tick after the mesh: the slice issues as of the
		// previous cycle and is visited this one.
		s.wakeSlice(dst, cycle)
		if !s.llc[dst].Issue(&r.Req) {
			s.llcRetry[dst].Push(r.Req)
		}
	}
}

// packetHigh classifies a request into the NoC priority classes: demands and
// CLIP-critical prefetches ride high.
func (s *System) packetHigh(req *mem.Request) bool {
	if req.Type == mem.Prefetch {
		return req.Critical
	}
	return true
}

// sliceOf maps a line to its LLC slice (address-interleaved).
func (s *System) sliceOf(addr mem.Addr) int {
	return int(mem.Mix64(addr.LineID()>>2) % uint64(len(s.llc)))
}

// l2Lower carries L2 misses over the mesh to the owning LLC slice.
type l2Lower struct {
	s    *System
	core int
}

// Issue implements cache.Lower. It runs in the tile phase, so the injection
// is staged in the tile's buffer and reaches the mesh at commit time — in
// the same ascending-core order the serial loop injected directly.
//
//clipvet:tilephase
func (l *l2Lower) Issue(req *mem.Request) bool {
	s := l.s
	slice := s.sliceOf(req.Addr)
	resp := mem.Response{Req: *req}
	s.stage[l.core].sends.SendPayload(l.core, slice, noc.FlitsPerAddr, s.packetHigh(req), pktLLCReq, &resp)
	return true
}

// l1Lower sits between L1D and L2; it implements the Hermes bypass.
type l1Lower struct {
	s    *System
	core int
}

// Issue implements cache.Lower. It runs in the tile phase: the Hermes
// bypass stages its direct-DRAM read in the tile's queue (issued to the
// controller at commit time, in core order) instead of mutating the shared
// controller mid-phase. A full staging queue backpressures the L1 miss path
// the way a full DRAM read queue did when the bypass issued synchronously.
//
//clipvet:tilephase
func (l *l1Lower) Issue(req *mem.Request) bool {
	s := l.s
	if h := s.hermesFor(l.core); h != nil && req.Type == mem.Load {
		if h.PredictOffChip(req.IP, req.Addr) {
			slice := s.sliceOf(req.Addr)
			st := &s.stage[l.core]
			if !s.l2[l.core].Probe(req.Addr) && !s.llc[slice].Probe(req.Addr) {
				// True off-chip: stage the DRAM access, skipping the on-chip
				// walk (the paper's latency saving).
				if st.dramQ.Len() >= directDRAMDepth {
					return false
				}
				st.dramQ.Push(stagedRead{req: *req, bypass: true})
				return true
			}
			// Mispredicted probe: the real Hermes would have burned a DRAM
			// read; model the wasted bandwidth with a low-priority read.
			waste := *req
			waste.Type = mem.Prefetch
			waste.ROBIndex = -1
			if st.dramQ.Len() < directDRAMDepth {
				st.dramQ.Push(stagedRead{req: waste})
			}
		}
	}
	return s.l2[l.core].Issue(req)
}

func bypassKey(core int, addr mem.Addr) uint64 {
	return uint64(core)<<48 ^ addr.LineID()
}

func (s *System) hermesFor(core int) *hermes.Predictor {
	if s.hermes == nil {
		return nil
	}
	return s.hermes[core]
}

// Tick advances the whole system one cycle in two phases plus a serial
// tail. Phase 1 (tile phase) ticks the per-core tiles — concurrently on the
// shard pool when ShardWorkers > 1, inline otherwise — with all cross-tile
// effects staged per tile. Phase 2 (commit) replays the staged effects
// serially in ascending core index, the exact order the old serial loop
// produced them. The tail (mesh, LLC slices, DRAM, deliveries, throttlers)
// is serial. With skipping enabled only the tiles and slices whose due
// cycle has come are visited; the others catch up on their idle accounting
// lazily, in one bulk call, when next visited or touched. Results are
// byte-identical across all four mode combinations.
//
//clipvet:hotpath
func (s *System) Tick() {
	cy := s.cycle
	s.coresTicked = 0
	s.markTiles(cy)
	s.seal()
	s.runTiles(cy)
	s.unseal()
	s.commit()
	if s.dynClip != nil {
		// The utilization signal is only sampled on epoch boundaries; skip
		// the O(channels) read on every other cycle.
		var util float64
		if cy%dynClipEpoch == 0 {
			util = s.dram.GlobalUtilization()
		}
		s.dynClip.update(cy, util)
	}
	s.mesh.Tick(cy)
	s.tickSlices(cy)
	s.dram.Tick(cy)
	s.deliverDRAM(cy)
	s.deliverHermesHeld(cy)
	if s.throttler != nil {
		s.tickThrottlers(cy)
	}
	s.cycle++
}

// tickSlices visits the LLC slices in ascending index: all of them with
// skipping off, otherwise only those due. A visit catches the slice up to
// cy, retries its refused deliveries, ticks it and recomputes its due
// cycle. A due slice may have nothing ready at cy (a delivery woke it);
// its Tick then only advances the clock and counts a blocked head's
// refusal, exactly what SkipTick would do. A passed-over slice is not
// touched at all; under clipdebug it re-derives its quiescence instead.
func (s *System) tickSlices(cy uint64) {
	for i, l := range s.llc {
		if s.skip && s.llcDue[i] > cy {
			if invariant.Enabled {
				invariant.Check(s.llcRetry[i].Len() == 0 && l.NextEvent(cy) > cy,
					"sim: LLC slice %d passed over at cycle %d (due %d) with work pending",
					i, cy, s.llcDue[i])
			}
			continue
		}
		s.sliceVisits++
		s.syncSlice(i, cy)
		s.drainLLCRetry(i, l)
		l.Tick(cy)
		s.llcAt[i] = cy + 1
		if s.skip {
			s.llcDue[i] = s.sliceNext(i, cy+1)
		}
	}
}

// sliceNext returns the earliest cycle >= now at which LLC slice i has
// work: refused deliveries retry every cycle.
func (s *System) sliceNext(i int, now uint64) uint64 {
	if s.llcRetry[i].Len() > 0 {
		return now
	}
	return s.llc[i].NextEvent(now)
}

// syncSlice applies LLC slice i's idle accounting for the cycles
// [llcAt[i], to). The slice was not due in them, so one SkipTick stands in
// for the per-cycle ones.
func (s *System) syncSlice(i int, to uint64) {
	if s.llcAt[i] < to {
		s.llc[i].SkipTick(to - 1)
		s.llcAt[i] = to
	}
}

// wakeSlice prepares LLC slice i for a mutation from outside its visit:
// it catches the slice up to cycle to (Issue and Fill stamp the slice's
// clock) and makes it due no later than to.
func (s *System) wakeSlice(i int, to uint64) {
	s.syncSlice(i, to)
	if s.llcDue[i] > to {
		s.llcDue[i] = to
	}
}

// syncAll catches every tile and slice up to cycle to: stats are read or
// reset, or the state serialized, only on a synced system.
func (s *System) syncAll(to uint64) {
	for i := range s.cores {
		s.syncTile(i, to)
		s.syncSlice(i, to)
	}
}

// drainLLCRetry retries refused deliveries to LLC slice i in arrival order,
// before the slice's new work, and stops at the first refusal. A refusal
// means the slice's input queue is full, and nothing drains it until the
// slice ticks, so every later entry would be refused too: the ring only
// ever holds requests the slice refused once, never a droppable prefetch
// (L2 misses travel Owned, writebacks are not prefetches).
func (s *System) drainLLCRetry(i int, l *cache.Cache) {
	q := &s.llcRetry[i]
	for q.Len() > 0 {
		if !l.Issue(q.Front()) {
			if invariant.Enabled {
				for j := 0; j < q.Len(); j++ {
					r := q.At(j)
					invariant.Check(r.Type != mem.Prefetch || r.Owned,
						"sim: droppable prefetch %x queued for LLC slice %d retry", uint64(r.Addr), i)
				}
			}
			return
		}
		q.PopFront()
	}
}

// Finished reports whether every core retired its budget. The count is
// maintained by per-core OnFinished events (and re-armed at the warmup
// barrier), so this is O(1) instead of a per-cycle core scan.
func (s *System) Finished() bool { return s.finished == len(s.cores) }

// horizon folds the tiles' and slices' due cycles with the other
// components' NextEvent and the simulation-level deadlines — staged
// direct-DRAM reads, pending DRAM responses, held Hermes fills, the
// throttler epoch, and the dynamic-CLIP sample — into the earliest cycle
// >= now that must actually be simulated.
func (s *System) horizon(now uint64) uint64 {
	for _, w := range s.dramWait {
		if w != 0 {
			return now // staged direct-DRAM reads retry the controller every cycle
		}
	}
	h := mem.NoEvent
	fold := func(e uint64) {
		if e < h {
			h = e
		}
	}
	for _, d := range s.tileDue {
		fold(d)
	}
	for _, d := range s.llcDue {
		fold(d)
	}
	fold(s.mesh.NextEvent(now))
	fold(s.dram.NextEvent(now))
	if len(s.dramPending) > 0 {
		fold(s.dramNext)
	}
	if len(s.hermesHold) > 0 {
		fold(s.hermesNext)
	}
	if s.throttler != nil {
		fold(s.nextThrottle)
	}
	if s.dynClip != nil {
		fold(s.dynClip.nextSample(now))
	}
	if h < now {
		h = now
	}
	return h
}

// skipAhead jumps the global clock to the earliest future cycle at which
// any component has work. A no-op when something has work next cycle. The
// tiles and slices need no call: their lazy accounting covers the jumped
// cycles at their next visit. The mesh, DRAM and dynamic CLIP get their
// bulk accounting here; under clipdebug each re-derives its own
// quiescence, so a horizon that undershoots real work panics instead of
// silently desyncing.
func (s *System) skipAhead(maxCycles uint64) {
	now := s.cycle // the next cycle to simulate
	h := s.horizon(now)
	if h > maxCycles {
		h = maxCycles
	}
	if h <= now {
		return
	}
	n := h - now
	s.mesh.SkipCycles(now, n)
	s.dram.AdvanceTo(now, n)
	if s.dynClip != nil {
		s.dynClip.advance(n)
	}
	s.cycle = h
}

// resetStats zeroes all measurement counters at the warmup barrier.
func (s *System) resetStats() {
	for i := range s.cores {
		s.cores[i].ResetStats()
		*s.l1d[i].Stats() = cache.Stats{}
		*s.l2[i].Stats() = cache.Stats{}
		*s.llc[i].Stats() = cache.Stats{}
		if s.clip != nil && s.clip[i] != nil {
			*s.clip[i].Stats() = core.Stats{}
		}
		if s.scored != nil {
			for j := range s.scored[i] {
				s.scored[i][j].score = criticality.Score{}
			}
		}
	}
	*s.dram.Stats() = dram.Stats{}
	*s.mesh.Stats() = noc.Stats{}
	if s.dynClip != nil {
		s.dynClip.resetCounters()
	}
	for i := range s.pfGenerated {
		s.pfGenerated[i] = 0
		s.pfIssued[i] = 0
	}
}

// MaxCycles resolves the configured cycle bound (the safety net of the run
// loop): Config.MaxCycles when set, otherwise derived from the instruction
// budget.
func (s *System) MaxCycles() uint64 {
	if s.cfg.MaxCycles != 0 {
		return s.cfg.MaxCycles
	}
	maxCycles := (s.cfg.WarmupInstr + s.cfg.InstrPerCore) * 300
	if maxCycles < 2_000_000 {
		maxCycles = 2_000_000
	}
	return maxCycles
}

// warmupBarrier transitions the system from warmup into measurement: zero
// counters, extend budgets, re-arm the finished counter (ExtendBudget resets
// each core's trigger).
func (s *System) warmupBarrier() {
	s.warmed = true
	s.syncAll(s.cycle)
	s.resetStats()
	s.measureStart = s.cycle
	s.finished = 0
	for _, c := range s.cores {
		c.ExtendBudget(s.cfg.InstrPerCore)
	}
}

// Step advances the run loop by one iteration — one Tick plus the barrier
// and skip handling — and reports whether the run continues. Extracting the
// loop body lets checkpoint tests pause a run at an arbitrary iteration with
// the exact semantics of Run.
func (s *System) Step(maxCycles uint64) bool {
	if s.cycle >= maxCycles {
		return false
	}
	s.Tick()
	if s.Finished() {
		if s.warmed {
			return false
		}
		s.warmupBarrier()
		return true
	}
	if s.skip && s.coresTicked == 0 {
		// Every core was quiescent this cycle — worth probing for a
		// global jump. (While any core is active the horizon is "now"
		// and the fold would be wasted work on the hot path.)
		s.skipAhead(maxCycles)
	}
	return true
}

func (s *System) runLoop(maxCycles uint64) {
	for s.Step(maxCycles) {
	}
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.runLoop(s.MaxCycles())
	return s.collect(), nil
}

// WarmupConfig canonicalizes a configuration down to its warmup-relevant
// core: every mechanism is stripped and the execution-mode knobs are zeroed,
// so all variants of one figure point — which share workloads, seeds and
// geometry but differ in mechanisms — map to the same warmup configuration
// and can fork from one warmed image.
func WarmupConfig(cfg Config) Config {
	c := cfg
	c.Prefetcher = "none"
	c.CLIP = nil
	c.CLIPAutoWindow = false
	c.CritPredictor = ""
	c.ScorePredictors = false
	c.Throttler = ""
	c.ThrottleEpoch = 0
	c.Hermes = false
	c.DSPatch = false
	c.DynamicCLIP = false
	c.NoCCriticalPriority = true
	c.DRAMCriticalPriority = true
	c.MaxCycles = 0
	c.DisableSkip = false
	c.ShardWorkers = 0
	return c
}

// WarmupImage runs cfg's warmup phase to completion and serializes the
// system at the warmup barrier — the instant the last core retires its
// warmup budget, before counters are zeroed. Restoring the image and
// crossing the barrier is byte-identical to having run the warmup in
// process (the warm-fork equivalence test pins this).
func WarmupImage(cfg Config) ([]byte, error) {
	if cfg.WarmupInstr == 0 {
		return nil, fmt.Errorf("sim: WarmupImage requires WarmupInstr > 0")
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	maxCycles := s.MaxCycles()
	for s.cycle < maxCycles && !s.Finished() {
		s.Tick()
		if s.Finished() {
			break
		}
		if s.skip && s.coresTicked == 0 {
			s.skipAhead(maxCycles)
		}
	}
	if !s.Finished() {
		return nil, fmt.Errorf("sim: warmup did not complete within %d cycles", maxCycles)
	}
	return s.SaveState()
}

// RunFromImage restores a warmup image (or any SaveState stream) into a
// fresh system built from cfg and runs it to completion. A mid-warmup image
// crosses the warmup barrier first, exactly as Run would have.
func RunFromImage(cfg Config, image []byte) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.LoadState(image); err != nil {
		return nil, err
	}
	if !s.warmed {
		if !s.Finished() {
			return nil, fmt.Errorf("sim: image paused mid-warmup; resume it with LoadState+Step")
		}
		s.warmupBarrier()
	}
	s.runLoop(s.MaxCycles())
	return s.collect(), nil
}

// tickThrottlers runs the epoch controllers. The next-epoch deadline
// replaces the per-cycle modulo check (and is folded into the skip horizon,
// so a global jump can never overshoot an epoch boundary).
func (s *System) tickThrottlers(cy uint64) {
	if cy < s.nextThrottle {
		return
	}
	epoch := s.throttleEpoch()
	if invariant.Enabled {
		invariant.Check(cy == s.nextThrottle,
			"sim: throttle epoch %d missed, ticked at %d", s.nextThrottle, cy)
	}
	s.nextThrottle += epoch
	for i, th := range s.throttler {
		if th == nil {
			continue
		}
		attach := s.l1d[i]
		if s.attachL2 {
			attach = s.l2[i]
		}
		st := attach.Stats()
		prev := &s.epochPrev[i]
		dFills := st.PFFills - prev.pfFills
		dUseful := st.PFUseful - prev.pfUseful
		dLate := st.PFLate - prev.pfLate
		dPoll := st.PFPolluting - prev.pfPolluting
		dMiss := st.DemandMisses - prev.misses
		retired := s.cores[i].Stats().Retired
		dRet := retired - prev.retired
		prev.pfFills, prev.pfUseful, prev.pfLate = st.PFFills, st.PFUseful, st.PFLate
		prev.pfPolluting, prev.misses, prev.retired = st.PFPolluting, st.DemandMisses, retired

		m := throttle.Metrics{
			BandwidthUtil: s.dram.GlobalUtilization(),
			CoreIPC:       float64(dRet) / float64(epoch),
		}
		if dFills+dLate > 0 {
			m.Accuracy = float64(dUseful+dLate) / float64(dFills+dLate)
		}
		if dUseful+dLate > 0 {
			m.Lateness = float64(dLate) / float64(dUseful+dLate)
		}
		if dMiss > 0 {
			m.Pollution = float64(dPoll) / float64(dMiss)
		}
		// Interference proxy: average DRAM queueing delay relative to a
		// lightly-loaded controller.
		qd := s.dram.Stats().QueueDelay.Mean()
		m.OtherCoreSlow = qd / (qd + 200)
		th.Adjust(m)
	}
}
