package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"

	"clip/internal/experiments"
	"clip/internal/runner"
	"clip/internal/sim"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny shrinks a workload configuration to test size.
func tiny(cfg sim.Config, instr uint64) sim.Config {
	cfg.InstrPerCore, cfg.WarmupInstr = instr, instr/4
	return cfg
}

// The measured split — sim.WarmupImage, then sim.RunFromImage — must
// simulate exactly what sim.Run does, for both mix workloads' configs.
func TestSplitMatchesRun(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  sim.Config
	}{
		{"busy-8c", tiny(busyConfigs(3)[0], 800)},
		{"constrained-64c", tiny(constrainedConfigs(3)[0], 200)},
	} {
		t.Run(c.name, func(t *testing.T) {
			whole, err := sim.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			img, err := sim.WarmupImage(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, err := sim.RunFromImage(c.cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			if !whole.Finished {
				t.Fatal("sim.Run left cores unfinished")
			}
			if !bytes.Equal(mustJSON(t, whole), mustJSON(t, split)) {
				t.Fatal("WarmupImage+RunFromImage differs from sim.Run")
			}
		})
	}
}

// The fig9-cold report must not depend on the engine's worker count, and
// the benchmark's copy of the figure's point list must match what the
// figure ran.
func TestFig9ReportWorkerInvariant(t *testing.T) {
	w, err := lookupWorkload("fig9-cold")
	if err != nil {
		t.Fatal(err)
	}
	entry, err := experiments.Lookup(w.figure)
	if err != nil {
		t.Fatal(err)
	}
	sc := w.scale
	sc.InstrPerCore, sc.Warmup, sc.HomMixes, sc.HetMixes = 600, 150, 1, 1
	var reports [][]byte
	for _, workers := range []int{1, 2} {
		runner.ResetShared()
		sc.Workers = workers
		rep, err := entry.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, append(mustJSON(t, rep), rep.String()...))
		cfgs, err := fig9Points(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := derivePoints(cfgs); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("fig9 report differs between 1 and 2 workers")
	}
}

// Every profile sample lands in exactly one bucket, and the buckets add up
// to the profile's total.
func TestAttributionComplete(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tiny(busyConfigs(5)[0], 4000)
	phase("measured", func() {
		for i := 0; i < 3; i++ {
			if _, err := sim.Run(cfg); err != nil {
				t.Error(err)
			}
		}
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	a := attribute(samples)
	if a.Samples != len(samples) {
		t.Fatalf("attributed %d of %d samples", a.Samples, len(samples))
	}
	buckets := map[string]bool{gcBucket: true, otherBucket: true}
	for _, l := range layers {
		buckets[l] = true
	}
	var sum, total float64
	for b, s := range a.Self {
		if !buckets[b] {
			t.Errorf("unknown bucket %q", b)
		}
		sum += s
	}
	for _, s := range samples {
		total += float64(s.ns) / 1e9
	}
	if math.Abs(sum-total) > 1e-9 || math.Abs(a.TotalS-total) > 1e-9 {
		t.Fatalf("buckets sum to %v s, profile holds %v s", sum, total)
	}
	if a.Self["sim"]+a.Self["cache"]+a.Self["cpu"] == 0 {
		t.Fatal("no simulator samples attributed")
	}
	if a.PhaseSel["sim"] == 0 {
		t.Fatal("phase label lost")
	}
}

func TestPkgOf(t *testing.T) {
	for in, want := range map[string]string{
		"clip/internal/cache.(*Cache).lookup":                                     "clip/internal/cache",
		"clip/internal/mem.(*Ring[go.shape.struct { clip/internal/mem.X }]).Push": "clip/internal/mem",
		"clip/internal/table.Fixed[go.shape.int32].Get":                           "clip/internal/table",
		"clip/internal/sim.NewSystem.func1":                                       "clip/internal/sim",
		"runtime.mallocgc":                                                        "runtime",
		"main.main":                                                               "main",
	} {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// Every simulator package is either a layer or deliberately transparent,
// so a new package cannot silently fall into the other bucket.
func TestEveryPackageHasALayer(t *testing.T) {
	// analysis is the clipvet analyzers, never linked into a simulation.
	transparent := map[string]bool{"mem": true, "table": true, "stats": true, "analysis": true}
	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, ok := layerOf["clip/internal/"+d.Name()]; d.IsDir() && !ok && !transparent[d.Name()] {
			t.Errorf("internal/%s has no layer", d.Name())
		}
	}
}
