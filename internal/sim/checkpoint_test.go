package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clip/internal/snapshot"
)

// checkpointMatrix enumerates the mechanism combinations the checkpoint
// contract is enforced over: the skip-equivalence configs (every subsystem
// with serialized deadlines) plus a SPAC-throttled CLIP config, so all four
// throttler-family snapshot kinds appear in at least one stream.
func checkpointMatrix() map[string]Config {
	m := skipMatrix()
	spac := m["clip"]
	spac.Throttler = "spac"
	m["spac"] = spac
	return m
}

// runSplitRestored runs cfg to completion twice: once straight through, and
// once pausing at iteration k to SaveState, restoring the image into a
// completely fresh System, and finishing there. Both Results are returned
// with their canonical JSON encodings; the checkpoint contract says they are
// byte-identical.
func runSplitRestored(t *testing.T, cfg Config, frac float64) (ref, got *Result, refJSON, gotJSON []byte) {
	t.Helper()

	// Reference pass, counting loop iterations so the split point can sit at
	// a fraction of the real run length (cycle counts vary with skipping).
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := s.MaxCycles()
	iters := 0
	for s.Step(maxCycles) {
		iters++
	}
	ref = s.collect()
	s.Close()
	if !ref.Finished {
		t.Fatalf("reference run did not finish")
	}

	// Paused pass: step to k, snapshot, throw the system away.
	k := int(float64(iters) * frac)
	s2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k && s2.Step(maxCycles); i++ {
	}
	image, err := s2.SaveState()
	s2.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Restored pass: a fresh System resumes from the image.
	s3, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := s3.LoadState(image); err != nil {
		t.Fatal(err)
	}
	for s3.Step(maxCycles) {
	}
	got = s3.collect()

	if refJSON, err = json.Marshal(ref); err != nil {
		t.Fatal(err)
	}
	if gotJSON, err = json.Marshal(got); err != nil {
		t.Fatal(err)
	}
	return ref, got, refJSON, gotJSON
}

// TestCheckpointSplitEquivalence is the core checkpoint contract: "run N
// cycles" and "run k, snapshot, restore into a fresh process image, run
// N−k" must produce byte-identical Results — for every mechanism
// combination, across seeds, with cycle skipping on and off, and under both
// the serial and the sharded tile phase.
func TestCheckpointSplitEquivalence(t *testing.T) {
	for name, base := range checkpointMatrix() {
		for _, seed := range []uint64{1, 2} {
			for _, noskip := range []bool{false, true} {
				for _, shard := range []int{0, 4} {
					cfg := base
					cfg.Seed = seed
					cfg.DisableSkip = noskip
					cfg.ShardWorkers = shard
					label := fmt.Sprintf("%s/seed%d/skip=%t/shard%d", name, seed, !noskip, shard)
					t.Run(label, func(t *testing.T) {
						t.Parallel()
						ref, got, refJSON, gotJSON := runSplitRestored(t, cfg, 0.5)
						if !got.Finished {
							t.Fatalf("restored run did not finish")
						}
						if !reflect.DeepEqual(ref, got) {
							t.Errorf("results diverge after restore")
						}
						if string(refJSON) != string(gotJSON) {
							t.Fatalf("reports not byte-identical: %s", firstDiff(refJSON, gotJSON))
						}
					})
				}
			}
		}
	}
}

// TestCheckpointSplitPoints varies the split fraction on one config so the
// snapshot is exercised mid-warmup (before the barrier) as well as deep into
// measurement.
func TestCheckpointSplitPoints(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	for _, frac := range []float64{0.05, 0.25, 0.75, 0.95} {
		frac := frac
		t.Run(fmt.Sprintf("frac=%v", frac), func(t *testing.T) {
			t.Parallel()
			_, _, refJSON, gotJSON := runSplitRestored(t, cfg, frac)
			if string(refJSON) != string(gotJSON) {
				t.Fatalf("split at %v diverges: %s", frac, firstDiff(refJSON, gotJSON))
			}
		})
	}
}

// TestWarmupImageRunEquivalence pins the warm-fork primitive against the
// straight run: warming up under the full config, snapshotting at the
// barrier, and resuming in a fresh System must be byte-identical to Run.
func TestWarmupImageRunEquivalence(t *testing.T) {
	for _, name := range []string{"clip", "hermes", "throttler"} {
		cfg := checkpointMatrix()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := mustRun(t, cfg)
			image, err := WarmupImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			refJSON, _ := json.Marshal(ref)
			gotJSON, _ := json.Marshal(got)
			if string(refJSON) != string(gotJSON) {
				t.Fatalf("warm image run diverges from straight run: %s",
					firstDiff(refJSON, gotJSON))
			}
		})
	}
}

// TestWarmForkDeterminism pins the fork-many protocol the runner cache uses:
// many variants fork from one mechanism-free warmed image (WarmupConfig),
// their mechanisms starting cold at the barrier. The result is a different
// (self-consistent) protocol from in-process warmup, so the contract here is
// determinism and image-sharing, not equality with Run.
func TestWarmForkDeterminism(t *testing.T) {
	base := checkpointMatrix()["clip"]
	wcfg := WarmupConfig(base)
	image, err := WarmupImage(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical warmup config is mechanism-free, so every variant of the
	// figure point maps to the same image.
	variant := checkpointMatrix()["hermes"]
	variant.Workload = base.Workload
	if WarmupConfig(variant).Prefetcher != wcfg.Prefetcher {
		t.Fatalf("warmup configs do not canonicalize")
	}
	for _, name := range []string{"clip", "dynclip", "spac"} {
		cfg := checkpointMatrix()[name]
		t.Run(name, func(t *testing.T) {
			a, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			aJSON, _ := json.Marshal(a)
			bJSON, _ := json.Marshal(b)
			if string(aJSON) != string(bJSON) {
				t.Fatalf("warm fork is nondeterministic: %s", firstDiff(aJSON, bJSON))
			}
			if !a.Finished {
				t.Fatalf("forked run did not finish")
			}
		})
	}
}

// TestLoadStateConfigMismatch: an image must only restore into the
// configuration that produced it (mechanisms aside — those sections skip).
func TestLoadStateConfigMismatch(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	image, err := WarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 99 },
		"workload": func(c *Config) { c.Workload[0] = "605.mcf_s-665B" },
		"instr":    func(c *Config) { c.InstrPerCore++ },
		"channels": func(c *Config) { c.Channels = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := cfg
			bad.Workload = append([]string(nil), cfg.Workload...)
			mutate(&bad)
			s, err := NewSystem(bad)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.LoadState(image); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("LoadState under %s mismatch: err=%v, want ErrConfigMismatch", name, err)
			}
		})
	}
}

// TestLoadStateTruncatedAndCorrupt: a damaged image must fail cleanly — an
// error, never a panic, regardless of where the stream is cut or flipped.
func TestLoadStateTruncatedAndCorrupt(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	image, err := WarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Every truncation point in the header plus a spread through the body.
	points := []int{0, 1, 4, 8, 9, 16}
	for p := 32; p < len(image); p += len(image)/97 + 1 {
		points = append(points, p)
	}
	for _, p := range points {
		s := fresh()
		if err := s.LoadState(image[:p]); err == nil {
			t.Fatalf("truncation at %d accepted", p)
		}
		s.Close()
	}
	// Bit flips: most damage the fingerprint or a length and must error; a
	// flip that happens to decode is acceptable only if it decodes fully.
	for p := 0; p < len(image); p += len(image)/53 + 1 {
		mut := append([]byte(nil), image...)
		mut[p] ^= 0xa5
		s := fresh()
		_ = s.LoadState(mut) // must not panic
		s.Close()
	}
}

// TestSystemSnapshotManifest is the reflection guard over System itself:
// adding a field without declaring its checkpoint treatment fails here.
func TestSystemSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(&System{}),
		[]string{
			// saveBase
			"cycle", "measureStart", "warmed", "finished",
			"cores", "l1d", "l2", "llc", "mesh", "dram",
			"ports", "icaches", "tlbs",
			"dramPending", "dramNext", "llcRetry",
			"hermesBypass", "hermesHold", "hermesNext",
			"epochPrev", "pfGenerated", "pfIssued", "pfQ",
			"stage", // persistent part: each tile's direct-DRAM queue
			"coreNext",
			// mechanism sections
			"pf", "clip", "critPred", "scored", "throttler", "hermes",
			"dynClip", "nextThrottle",
		},
		[]string{
			// Rebuilt by NewSystem from the (fingerprint-checked) Config.
			"cfg", "attachL2", "skip", "pool",
			// Per-cycle transient, reset by LoadState.
			"coresTicked",
			// Sparse-tick clocks and bitmaps: SaveState syncs every tile and
			// slice first, and LoadState rebuilds them from the restored
			// cycle and direct-DRAM queues.
			"tileDue", "tileAt", "llcDue", "llcAt", "tileRun", "dramWait",
			// Visit counters: a work measure, not simulation state.
			"tileVisits", "sliceVisits",
		})
}

// TestTileStageSnapshotManifest covers the staging buffer: only the
// persistent direct-DRAM queue survives a tick boundary, everything else is
// per-cycle scratch drained by the commit phase.
func TestTileStageSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(tileStage{}),
		[]string{"dramQ"},
		[]string{"sends", "ticked", "finished"})
}

// TestCorePortSnapshotManifest / icache / dynamicClip: the sim-local
// structures serialized inline by saveBase.
func TestCorePortSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(corePort{}),
		[]string{"pending"},
		[]string{"s", "core", "tlbs"})
}

func TestICacheSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(icache{}),
		[]string{"tags", "clock", "stats"},
		[]string{"sets", "ways", "missPenalty"})
	snapshot.CheckManifest(t, snapshot.MustStruct(icLine{}),
		[]string{"valid", "tag", "stamp"}, nil)
}

func TestDynamicClipSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(dynamicClip{}),
		[]string{"active", "activeCycles", "totalCycles"}, nil)
}
