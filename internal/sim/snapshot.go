package sim

import (
	"errors"
	"fmt"
	"slices"

	"clip/internal/criticality"
	"clip/internal/dspatch"
	"clip/internal/mem"
	"clip/internal/prefetch"
	"clip/internal/snapshot"
	"clip/internal/throttle"
)

// System checkpointing (DESIGN.md §12). SaveState serializes the complete
// dynamic state of a system mid-run; LoadState restores it into a freshly
// constructed System of a compatible configuration. "Compatible" is split in
// two:
//
//   - The state fingerprint — everything that shapes serialized state or the
//     deterministic input stream (workloads, seeds, geometry, front-end
//     models) — must match exactly, or LoadState refuses with
//     ErrConfigMismatch.
//
//   - Mechanisms (prefetcher, CLIP, criticality predictors, throttlers,
//     Hermes, DSPatch, dynamic CLIP) are carried in skippable sections. A
//     matching receiver restores them; a receiver configured differently
//     skips the saved section and keeps its own mechanism cold. This is what
//     lets one warmed mechanism-free image fork into every variant of a
//     figure point (the warm-fork path in internal/runner).
//
// The equivalence matrix in checkpoint_test.go pins the contract: running N
// cycles straight is byte-identical to running k cycles, saving, restoring
// into a fresh System and running the remaining N-k.

// ErrConfigMismatch reports a snapshot whose state fingerprint differs from
// the receiving system's configuration.
var ErrConfigMismatch = errors.New("sim: snapshot was taken under an incompatible configuration")

// stateFingerprint captures every configuration field that shapes serialized
// state geometry or the deterministic input stream. Mechanism choices are
// deliberately absent (they live in skippable sections), as are the execution
// modes (DisableSkip, ShardWorkers) whose results are byte-identical by the
// equivalence tests.
func (c *Config) stateFingerprint() string {
	return fmt.Sprintf("w=%v i=%d wu=%d cpu=%+v div=%d l1d=%+v l2=%+v llc=%+v ch=%d tr=%d tlb=%t l1i=%t norefresh=%t seed=%d",
		c.Workload, c.InstrPerCore, c.WarmupInstr, c.CPU, c.ScaleDivisor,
		c.L1D, c.L2, c.LLC, c.Channels, c.TransferCycles,
		c.EnableTLB, c.EnableL1I, c.DisableDRAMRefresh, c.Seed)
}

// mechSet describes which mechanism sections a system carries.
type mechSet struct {
	pf      string
	dspatch bool
	clip    bool
	crit    string
	scored  bool
	thr     string
	hermes  bool
	dyn     bool
}

func (s *System) mechs() mechSet {
	return mechSet{
		pf:      s.cfg.Prefetcher,
		dspatch: s.cfg.DSPatch,
		clip:    s.clip != nil,
		crit:    s.cfg.CritPredictor,
		scored:  s.scored != nil,
		thr:     s.cfg.Throttler,
		hermes:  s.hermes != nil,
		dyn:     s.dynClip != nil,
	}
}

// SaveState serializes the system's complete dynamic state.
//
//clipvet:serial runs only between ticks, never during the tile phase
func (s *System) SaveState() ([]byte, error) {
	s.syncAll(s.cycle)
	w := snapshot.NewWriter()
	w.String(s.cfg.stateFingerprint())
	m := s.mechs()
	w.String(m.pf)
	w.Bool(m.dspatch)
	w.Bool(m.clip)
	w.String(m.crit)
	w.Bool(m.scored)
	w.String(m.thr)
	w.Bool(m.hermes)
	w.Bool(m.dyn)
	w.Section("base", func() { s.saveBase(w) })
	w.Section("pf", func() { s.savePF(w) })
	if m.clip {
		w.Section("clip", func() { s.saveCLIP(w) })
	}
	if m.crit != "" {
		w.Section("crit", func() { s.saveCrit(w) })
	}
	if m.scored {
		w.Section("scored", func() { s.saveScored(w) })
	}
	if m.thr != "" {
		w.Section("throttle", func() { s.saveThrottle(w) })
	}
	if m.hermes {
		w.Section("hermes", func() { s.saveHermes(w) })
	}
	if m.dyn {
		w.Section("dynclip", func() { s.saveDynClip(w) })
	}
	return w.Bytes()
}

// LoadState restores a SaveState stream into s, which must have been built by
// NewSystem under a configuration with the same state fingerprint. Mechanism
// sections restore only into a matching mechanism; mismatched sections are
// skipped and the receiver's mechanism starts cold (the warm-fork contract).
//
//clipvet:serial runs only between ticks, never during the tile phase
func (s *System) LoadState(data []byte) error {
	r, err := snapshot.NewReader(data)
	if err != nil {
		return err
	}
	if fp := r.String(); r.Err() == nil && fp != s.cfg.stateFingerprint() {
		return fmt.Errorf("%w: snapshot %q vs receiver %q",
			ErrConfigMismatch, fp, s.cfg.stateFingerprint())
	}
	var saved mechSet
	saved.pf = r.String()
	saved.dspatch = r.Bool()
	saved.clip = r.Bool()
	saved.crit = r.String()
	saved.scored = r.Bool()
	saved.thr = r.String()
	saved.hermes = r.Bool()
	saved.dyn = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	have := s.mechs()
	r.Section("base", func() { s.loadBase(r) })
	pfMatch := saved.pf == have.pf && saved.dspatch == have.dspatch
	if pfMatch {
		r.Section("pf", func() { s.loadPF(r) })
	} else {
		skipSection(r, "pf")
	}
	if saved.clip {
		if have.clip {
			r.Section("clip", func() { s.loadCLIP(r) })
		} else {
			skipSection(r, "clip")
		}
	}
	if saved.crit != "" {
		if saved.crit == have.crit {
			r.Section("crit", func() { s.loadCrit(r) })
		} else {
			skipSection(r, "crit")
		}
	}
	if saved.scored {
		if have.scored {
			r.Section("scored", func() { s.loadScored(r) })
		} else {
			skipSection(r, "scored")
		}
	}
	thrLoaded := false
	if saved.thr != "" {
		// Throttlers bind the prefetcher (per-core nil-ness follows its
		// Throttleable-ness), so they only restore alongside a matching pf.
		if saved.thr == have.thr && pfMatch {
			r.Section("throttle", func() { s.loadThrottle(r) })
			thrLoaded = true
		} else {
			skipSection(r, "throttle")
		}
	}
	if saved.hermes {
		if have.hermes {
			r.Section("hermes", func() { s.loadHermes(r) })
		} else {
			skipSection(r, "hermes")
		}
	}
	if saved.dyn {
		if have.dyn {
			r.Section("dynclip", func() { s.loadDynClip(r) })
		} else {
			skipSection(r, "dynclip")
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	if s.throttler != nil && !thrLoaded {
		// A freshly-attached throttler epochs from the next boundary after
		// the restored cycle (a cold run epochs from the first boundary).
		ep := s.throttleEpoch()
		s.nextThrottle = (s.cycle/ep + 1) * ep
	}
	s.coresTicked = 0
	s.restartClocks()
	return nil
}

// restartClocks rebuilds the unserialized sparse-tick state after a
// restore: the image was taken synced, so every tile and slice has applied
// its accounting up to the restored cycle, and all of them are due at it
// (their first visit recomputes the real due cycle). dramWait follows the
// restored direct-DRAM queues.
func (s *System) restartClocks() {
	for i := range s.cores {
		s.tileAt[i], s.tileDue[i] = s.cycle, s.cycle
		s.llcAt[i], s.llcDue[i] = s.cycle, s.cycle
	}
	clear(s.dramWait)
	for i := range s.stage {
		if s.stage[i].dramQ.Len() > 0 {
			s.dramWait[i>>6] |= 1 << uint(i&63)
		}
	}
}

// skipSection skips one section, verifying the stream is aligned on the
// expected tag.
func skipSection(r *snapshot.Reader, tag string) {
	if got := r.SkipSection(); r.Err() == nil && got != tag {
		r.Fail(fmt.Errorf("sim: snapshot section %q, expected %q: %w",
			got, tag, snapshot.ErrCorrupt))
	}
}

// saveBase serializes everything outside the mechanism sections: cores,
// caches, interconnect, DRAM, front-end models and the simulation-level
// queues and counters.
func (s *System) saveBase(w *snapshot.Writer) {
	w.U64(s.cycle)
	w.U64(s.measureStart)
	w.Bool(s.warmed)
	w.Int(s.finished)
	for _, c := range s.cores {
		c.Save(w)
	}
	for _, c := range s.l1d {
		c.Save(w)
	}
	for _, c := range s.l2 {
		c.Save(w)
	}
	for _, c := range s.llc {
		c.Save(w)
	}
	s.mesh.Save(w)
	s.dram.Save(w)
	for _, p := range s.ports {
		p.save(w)
	}
	for _, ic := range s.icaches {
		w.Bool(ic != nil)
		if ic != nil {
			ic.save(w)
		}
	}
	for _, t := range s.tlbs {
		w.Bool(t != nil)
		if t != nil {
			t.Save(w)
		}
	}
	w.Int(len(s.dramPending))
	for i := range s.dramPending {
		mem.SaveResponse(w, &s.dramPending[i])
	}
	w.U64(s.dramNext)
	for i := range s.llcRetry {
		mem.SaveRing(w, &s.llcRetry[i], func(q *mem.Request) { mem.SaveRequest(w, q) })
	}
	// Map iteration order is not deterministic; sort the bypass keys so two
	// saves of the same state are byte-identical.
	keys := make([]uint64, 0, len(s.hermesBypass))
	for k := range s.hermesBypass { //clipvet:orderfree key collection only; sorted below before encoding
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		w.Int(s.hermesBypass[k])
	}
	w.Int(len(s.hermesHold))
	for i := range s.hermesHold {
		mem.SaveResponse(w, &s.hermesHold[i])
	}
	w.U64(s.hermesNext)
	for i := range s.epochPrev {
		e := &s.epochPrev[i]
		w.U64(e.pfFills)
		w.U64(e.pfUseful)
		w.U64(e.pfLate)
		w.U64(e.pfPolluting)
		w.U64(e.misses)
		w.U64(e.retired)
	}
	w.U64s(s.pfGenerated)
	w.U64s(s.pfIssued)
	for i := range s.pfQ {
		mem.SaveRing(w, &s.pfQ[i], func(e *pfEntry) {
			mem.SaveRequest(w, &e.req)
			w.Bool(e.toL2)
		})
	}
	for i := range s.stage {
		mem.SaveRing(w, &s.stage[i].dramQ, func(e *stagedRead) {
			mem.SaveRequest(w, &e.req)
			w.Bool(e.bypass)
		})
	}
	w.U64s(s.coreNext)
}

func (s *System) loadBase(r *snapshot.Reader) {
	s.cycle = r.U64()
	s.measureStart = r.U64()
	s.warmed = r.Bool()
	s.finished = r.Int()
	if r.Err() == nil && (s.finished < 0 || s.finished > len(s.cores)) {
		r.Fail(fmt.Errorf("sim: finished count %d of %d cores: %w",
			s.finished, len(s.cores), snapshot.ErrCorrupt))
		return
	}
	for _, c := range s.cores {
		c.Load(r)
	}
	for _, c := range s.l1d {
		c.Load(r)
	}
	for _, c := range s.l2 {
		c.Load(r)
	}
	for _, c := range s.llc {
		c.Load(r)
	}
	s.mesh.Load(r)
	s.dram.Load(r)
	for _, p := range s.ports {
		p.load(r)
	}
	for _, ic := range s.icaches {
		has := r.Bool()
		if r.Err() == nil && has != (ic != nil) {
			r.Fail(fmt.Errorf("sim: L1I presence mismatch: %w", snapshot.ErrCorrupt))
			return
		}
		if ic != nil {
			ic.load(r)
		}
	}
	for _, t := range s.tlbs {
		has := r.Bool()
		if r.Err() == nil && has != (t != nil) {
			r.Fail(fmt.Errorf("sim: TLB presence mismatch: %w", snapshot.ErrCorrupt))
			return
		}
		if t != nil {
			t.Load(r)
		}
	}
	n := r.Int()
	if r.Err() == nil && (n < 0 || n > 1<<20) {
		r.Fail(fmt.Errorf("sim: %d pending DRAM responses: %w", n, snapshot.ErrCorrupt))
		return
	}
	s.dramPending = s.dramPending[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		var resp mem.Response
		mem.LoadResponse(r, &resp)
		s.dramPending = append(s.dramPending, resp)
	}
	s.dramNext = r.U64()
	for i := range s.llcRetry {
		mem.LoadRing(r, &s.llcRetry[i], func(q *mem.Request) { mem.LoadRequest(r, q) })
	}
	nb := r.Int()
	if r.Err() == nil && (nb < 0 || nb > 1<<24) {
		r.Fail(fmt.Errorf("sim: %d bypass entries: %w", nb, snapshot.ErrCorrupt))
		return
	}
	clear(s.hermesBypass)
	for i := 0; i < nb && r.Err() == nil; i++ {
		k := r.U64()
		s.hermesBypass[k] = r.Int()
	}
	nh := r.Int()
	if r.Err() == nil && (nh < 0 || nh > 1<<20) {
		r.Fail(fmt.Errorf("sim: %d held Hermes fills: %w", nh, snapshot.ErrCorrupt))
		return
	}
	s.hermesHold = s.hermesHold[:0]
	for i := 0; i < nh && r.Err() == nil; i++ {
		var resp mem.Response
		mem.LoadResponse(r, &resp)
		s.hermesHold = append(s.hermesHold, resp)
	}
	s.hermesNext = r.U64()
	for i := range s.epochPrev {
		e := &s.epochPrev[i]
		e.pfFills = r.U64()
		e.pfUseful = r.U64()
		e.pfLate = r.U64()
		e.pfPolluting = r.U64()
		e.misses = r.U64()
		e.retired = r.U64()
	}
	r.U64s(s.pfGenerated)
	r.U64s(s.pfIssued)
	for i := range s.pfQ {
		mem.LoadRing(r, &s.pfQ[i], func(e *pfEntry) {
			mem.LoadRequest(r, &e.req)
			e.toL2 = r.Bool()
		})
	}
	for i := range s.stage {
		mem.LoadRing(r, &s.stage[i].dramQ, func(e *stagedRead) {
			mem.LoadRequest(r, &e.req)
			e.bypass = r.Bool()
		})
	}
	r.U64s(s.coreNext)
}

// savePF serializes the per-core prefetchers (through their DSPatch wrapper
// when one is configured).
func (s *System) savePF(w *snapshot.Writer) {
	for i := range s.pf {
		if d, ok := s.pf[i].(*dspatch.DSPatch); ok {
			d.Save(w)
		} else {
			prefetch.SavePrefetcher(w, s.pf[i])
		}
	}
}

func (s *System) loadPF(r *snapshot.Reader) {
	for i := range s.pf {
		if d, ok := s.pf[i].(*dspatch.DSPatch); ok {
			d.Load(r)
		} else {
			prefetch.LoadPrefetcher(r, s.pf[i])
		}
	}
}

func (s *System) saveCLIP(w *snapshot.Writer) {
	for i := range s.clip {
		s.clip[i].Save(w)
	}
}

func (s *System) loadCLIP(r *snapshot.Reader) {
	for i := range s.clip {
		s.clip[i].Load(r)
	}
}

func (s *System) saveCrit(w *snapshot.Writer) {
	for i := range s.critPred {
		criticality.SavePredictor(w, s.critPred[i])
	}
}

func (s *System) loadCrit(r *snapshot.Reader) {
	for i := range s.critPred {
		criticality.LoadPredictor(r, s.critPred[i])
	}
}

func (s *System) saveScored(w *snapshot.Writer) {
	for i := range s.scored {
		w.Int(len(s.scored[i]))
		for j := range s.scored[i] {
			sp := &s.scored[i][j]
			criticality.SavePredictor(w, sp.pred)
			sp.score.Save(w)
		}
	}
}

func (s *System) loadScored(r *snapshot.Reader) {
	for i := range s.scored {
		if n := r.Int(); r.Err() == nil && n != len(s.scored[i]) {
			r.Fail(fmt.Errorf("sim: snapshot has %d scored predictors, receiver has %d: %w",
				n, len(s.scored[i]), snapshot.ErrCorrupt))
		}
		if r.Err() != nil {
			return
		}
		for j := range s.scored[i] {
			sp := &s.scored[i][j]
			criticality.LoadPredictor(r, sp.pred)
			sp.score.Load(r)
		}
	}
}

func (s *System) saveThrottle(w *snapshot.Writer) {
	w.U64(s.nextThrottle)
	for _, th := range s.throttler {
		w.Bool(th != nil)
		if th != nil {
			throttle.SaveThrottler(w, th)
		}
	}
}

func (s *System) loadThrottle(r *snapshot.Reader) {
	s.nextThrottle = r.U64()
	for _, th := range s.throttler {
		has := r.Bool()
		if r.Err() == nil && has != (th != nil) {
			r.Fail(fmt.Errorf("sim: throttler presence mismatch: %w", snapshot.ErrCorrupt))
			return
		}
		if th != nil {
			throttle.LoadThrottler(r, th)
		}
	}
}

func (s *System) saveHermes(w *snapshot.Writer) {
	for i := range s.hermes {
		s.hermes[i].Save(w)
	}
}

func (s *System) loadHermes(r *snapshot.Reader) {
	for i := range s.hermes {
		s.hermes[i].Load(r)
	}
}

func (s *System) saveDynClip(w *snapshot.Writer) {
	s.dynClip.save(w)
}

func (s *System) loadDynClip(r *snapshot.Reader) {
	s.dynClip.load(r)
}

// save serializes the translation port's delayed-request queue.
func (p *corePort) save(w *snapshot.Writer) {
	w.Int(len(p.pending))
	for i := range p.pending {
		mem.SaveRequest(w, &p.pending[i].req)
		w.U64(p.pending[i].ready)
	}
}

func (p *corePort) load(r *snapshot.Reader) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > 16 {
		r.Fail(fmt.Errorf("sim: port queue %d entries: %w", n, snapshot.ErrCorrupt))
		return
	}
	p.pending = p.pending[:0]
	for i := 0; i < n; i++ {
		var d delayedReq
		mem.LoadRequest(r, &d.req)
		d.ready = r.U64()
		p.pending = append(p.pending, d)
	}
}

// save serializes the L1I tag array and counters.
func (ic *icache) save(w *snapshot.Writer) {
	w.Int(len(ic.tags))
	for i := range ic.tags {
		l := &ic.tags[i]
		w.Bool(l.valid)
		w.U64(l.tag)
		w.U64(l.stamp)
	}
	w.U64(ic.clock)
	w.U64(ic.stats.Fetches)
	w.U64(ic.stats.Misses)
}

func (ic *icache) load(r *snapshot.Reader) {
	if n := r.Int(); r.Err() == nil && n != len(ic.tags) {
		r.Fail(fmt.Errorf("sim: snapshot has %d L1I lines, receiver has %d: %w",
			n, len(ic.tags), snapshot.ErrCorrupt))
	}
	if r.Err() != nil {
		return
	}
	for i := range ic.tags {
		l := &ic.tags[i]
		l.valid = r.Bool()
		l.tag = r.U64()
		l.stamp = r.U64()
	}
	ic.clock = r.U64()
	ic.stats.Fetches = r.U64()
	ic.stats.Misses = r.U64()
}

// save serializes the dynamic-CLIP engagement state.
func (d *dynamicClip) save(w *snapshot.Writer) {
	w.Bool(d.active)
	w.U64(d.activeCycles)
	w.U64(d.totalCycles)
}

func (d *dynamicClip) load(r *snapshot.Reader) {
	d.active = r.Bool()
	d.activeCycles = r.U64()
	d.totalCycles = r.U64()
}
