package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"clip/internal/core"
	"clip/internal/mem"
)

// skipMatrix enumerates the mechanism combinations the skip-equivalence
// contract is enforced over: each entry must produce byte-identical results
// with event-horizon cycle skipping on and off. The set covers every
// subsystem whose deadlines fold into the horizon — Hermes holds, throttler
// epochs, dynamic CLIP sampling, and the NoC critical-priority arbitration
// — plus an LLC input queue small enough to overflow into the retry ring,
// and one 16-core config in which most tiles and slices idle.
func skipMatrix() map[string]Config {
	base := func(bench string) Config {
		cfg := DefaultConfig(4, 1, 8)
		for i := range cfg.Workload {
			cfg.Workload[i] = bench
		}
		cfg.InstrPerCore = 4000
		cfg.WarmupInstr = 1000
		// A slow bus keeps cores stalled on DRAM for long stretches, so the
		// skipping fast path actually engages (idle fabric, quiescent caches)
		// rather than degenerating into the per-cycle loop.
		cfg.TransferCycles = 40
		cfg.Prefetcher = "berti"
		return cfg
	}
	withCLIP := func(cfg Config) Config {
		c := core.DefaultConfig()
		cfg.CLIP = &c
		return cfg
	}

	m := map[string]Config{}
	m["clip"] = withCLIP(base("619.lbm_s-2676B"))

	hermes := withCLIP(base("605.mcf_s-665B"))
	hermes.Hermes = true
	m["hermes"] = hermes

	throt := base("619.lbm_s-2676B")
	throt.Throttler = "fdp"
	m["throttler"] = throt

	dyn := withCLIP(base("619.lbm_s-2676B"))
	dyn.DynamicCLIP = true
	m["dynclip"] = dyn

	nocOff := withCLIP(base("602.gcc_s-734B"))
	nocOff.NoCCriticalPriority = false
	nocOff.DRAMCriticalPriority = false
	m["noc-prio-off"] = nocOff

	mixed := base("620.omnetpp_s-874B")
	mixed.Workload[1] = "619.lbm_s-2676B"
	mixed.Workload[2] = "605.mcf_s-665B"
	mixed.EnableTLB = true
	mixed.DSPatch = true
	m["het-dspatch"] = mixed

	// A criticality predictor registers the core's OnRetire listener, so this
	// config pins the retire-event path (per-entry event materialization)
	// that the listener-free fast path skips.
	crit := base("605.mcf_s-665B")
	crit.CritPredictor = "catch"
	m["critpred"] = crit

	// A two-entry LLC input queue makes mesh deliveries overflow into the
	// retry ring, which keeps a slice due while it is non-empty.
	retry := withCLIP(base("619.lbm_s-2676B"))
	retry.LLC.InQ = 2
	m["llc-retry"] = retry

	// Sixteen cores behind two channels: most tiles and slices sit idle on
	// most cycles, so this config exercises the sparse tick — lazy idle
	// accounting, and the wake points where the mesh and DRAM fill a tile
	// or slice that was passed over.
	bench := []string{"605.mcf_s-665B", "619.lbm_s-2676B", "602.gcc_s-734B", "620.omnetpp_s-874B"}
	many := withCLIP(DefaultConfig(16, 2, 8))
	for i := range many.Workload {
		many.Workload[i] = bench[i%len(bench)]
	}
	many.InstrPerCore = 2000
	many.WarmupInstr = 500
	many.TransferCycles = 40
	many.Prefetcher = "berti"
	many.EnableTLB = true
	m["manycore"] = many

	return m
}

// runSkipPair runs one config with skipping on and off and returns both
// results plus their canonical JSON encodings.
func runSkipPair(t *testing.T, cfg Config) (on, off *Result, onJSON, offJSON []byte) {
	t.Helper()
	cfg.DisableSkip = false
	on = mustRun(t, cfg)
	cfg.DisableSkip = true
	off = mustRun(t, cfg)
	var err error
	if onJSON, err = json.Marshal(on); err != nil {
		t.Fatal(err)
	}
	if offJSON, err = json.Marshal(off); err != nil {
		t.Fatal(err)
	}
	return on, off, onJSON, offJSON
}

// TestSkipEquivalenceMatrix is the determinism contract for event-horizon
// cycle skipping: for every mechanism combination, the full Result — cycle
// counts, per-core stats, cache/NoC/DRAM counters, energy, predictor scores
// — must be identical whether the simulator walks every cycle or jumps
// between horizons.
func TestSkipEquivalenceMatrix(t *testing.T) {
	for name, cfg := range skipMatrix() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			on, off, onJSON, offJSON := runSkipPair(t, cfg)
			if !on.Finished || !off.Finished {
				t.Fatalf("run did not finish (on=%v off=%v)", on.Finished, off.Finished)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("results diverge between skip modes")
			}
			if string(onJSON) != string(offJSON) {
				t.Fatalf("reports not byte-identical:\nskip on:  %s\nskip off: %s",
					firstDiff(onJSON, offJSON), "(see above)")
			}
		})
	}
}

// TestSkipEquivalenceSeeds varies the workload seed to shake out
// initial-state-dependent divergence the fixed-seed matrix could miss.
func TestSkipEquivalenceSeeds(t *testing.T) {
	cfg := skipMatrix()["clip"]
	for seed := uint64(2); seed <= 4; seed++ {
		cfg.Seed = seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			_, _, onJSON, offJSON := runSkipPair(t, cfg)
			if string(onJSON) != string(offJSON) {
				t.Fatalf("seed %d diverges: %s", seed, firstDiff(onJSON, offJSON))
			}
		})
	}
}

// firstDiff renders the neighbourhood of the first differing byte so a
// divergence points at the responsible counter instead of dumping two full
// reports.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("byte %d: ...%s... vs ...%s...", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestSparseTickVisits is the deterministic work gate of the sparse tick:
// on the stalled 16-core config, Tick must visit only the tiles and LLC
// slices that have work. The bounds sit above the measured rates (tiles
// 0.50–0.52 visits per tile per cycle over seeds 1–3, almost all of them
// cores retrying a refused load issue; slices 0.009) and far below the
// 1.0 of dense visiting, which the noskip arm must still show exactly.
func TestSparseTickVisits(t *testing.T) {
	const maxTileRate, maxSliceRate = 0.65, 0.03
	rates := func(cfg Config) (tile, slice float64) {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.runLoop(s.MaxCycles())
		if !s.Finished() {
			t.Fatal("run did not finish")
		}
		tileCycles := float64(s.cycle) * float64(len(s.cores))
		return float64(s.tileVisits) / tileCycles, float64(s.sliceVisits) / tileCycles
	}
	cfg := skipMatrix()["manycore"]
	tile, slice := rates(cfg)
	t.Logf("skip: %.4f tile and %.4f slice visits per component-cycle", tile, slice)
	if tile > maxTileRate || slice > maxSliceRate {
		t.Errorf("sparse tick visits %.4f per tile and %.4f per slice per cycle, bounds %.2f and %.2f",
			tile, slice, maxTileRate, maxSliceRate)
	}
	cfg.DisableSkip = true
	if tile, slice := rates(cfg); tile != 1 || slice != 1 {
		t.Errorf("dense visiting counted %.4f per tile and %.4f per slice per cycle, want 1",
			tile, slice)
	}
}

// TestCommitDrainsWaitingTile pins the one commit visit that does not
// follow a tile visit: a tile that did not run this cycle but still holds a
// staged direct-DRAM read (the controller refused it earlier) holds the
// skip horizon at now, retries the controller at commit, and leaves the
// wait set once drained.
func TestCommitDrainsWaitingTile(t *testing.T) {
	s, err := NewSystem(skipMatrix()["hermes"])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const tile = 2
	req := mem.Request{Addr: mem.Addr(0x40 << 6), Type: mem.Load, Core: tile, ROBIndex: -1}
	s.stage[tile].dramQ.Push(stagedRead{req: req, bypass: true})
	s.dramWait[0] = 1 << tile
	for i := range s.cores {
		s.tileDue[i], s.llcDue[i] = mem.NoEvent, mem.NoEvent
	}
	if h := s.horizon(0); h != 0 {
		t.Fatalf("horizon %d passes a staged direct-DRAM read", h)
	}
	clear(s.tileRun)
	s.commit()
	if n := s.stage[tile].dramQ.Len(); n != 0 {
		t.Fatalf("waiting tile kept %d staged reads", n)
	}
	if s.hermesBypass[bypassKey(tile, req.Addr)] != 1 {
		t.Fatal("staged bypass read did not reach the controller")
	}
	if s.dramWait[0] != 0 {
		t.Fatalf("drained tile still marked waiting: %b", s.dramWait[0])
	}
}
