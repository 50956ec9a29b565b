package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"clip/internal/experiments"
	"clip/internal/runner"
	"clip/internal/sim"
)

// Child modes: one timed repetition, a set-up-only probe, or the traced
// repetition that records a CPU profile.
const (
	modeRun    = "run"
	modeSetup  = "setup"
	modeTraced = "traced"
)

// repRecord is what one child process reports, as the last line of its
// standard output.
type repRecord struct {
	Err       string  `json:"err,omitempty"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCount   uint32  `json:"gc_count"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Digest    string  `json:"digest"`
	Work      work    `json:"work"`
	Workers   int     `json:"workers"`
	MemoHits  uint64  `json:"memo_hits"`
	Traced    *traced `json:"traced,omitempty"`
}

// traced holds what only the traced repetition measures.
type traced struct {
	Profile attribution `json:"profile"`
	CPUS    float64     `json:"cpu_s"` // process CPU seconds while profiling
	Steps   uint64      `json:"steps"`
	SaveS   float64     `json:"save_s"`
	LoadS   float64     `json:"load_s"`
	ImageMB float64     `json:"image_mb"`
}

// runChild performs one repetition of w in this process. t0 is when the
// parent spawned it, so setup_s includes process start.
func runChild(w *benchWorkload, mode string, seed uint64, t0 time.Time, profPath string) *repRecord {
	rec := &repRecord{Workers: 1}
	var prof *os.File
	if mode == modeTraced {
		f, err := os.Create(profPath)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			rec.Err = err.Error()
			return rec
		}
	}
	cpu0 := cpuSeconds()
	var cfgs []sim.Config
	var results []*sim.Result
	err := func() error {
		if w.configs != nil {
			cfgs = w.configs(seed)
			imgs := make([][]byte, len(cfgs))
			var err error
			phase("setup", func() {
				for i := range cfgs {
					if imgs[i], err = sim.WarmupImage(cfgs[i]); err != nil {
						return
					}
				}
			})
			if err != nil {
				return err
			}
			rec.SetupS = time.Since(t0).Seconds()
			if mode == modeSetup {
				return nil
			}
			results = make([]*sim.Result, len(cfgs))
			rec.measure(func() {
				phase("measured", func() {
					for i := range cfgs {
						if results[i], err = sim.RunFromImage(cfgs[i], imgs[i]); err != nil {
							return
						}
					}
				})
			})
			if err != nil {
				return err
			}
			return rec.digest(results)
		}
		sc := w.scale
		rec.Workers = sc.Workers
		var entry experiments.Entry
		var err error
		phase("setup", func() { entry, err = experiments.Lookup(w.figure) })
		if err != nil {
			return err
		}
		rec.SetupS = time.Since(t0).Seconds()
		if mode == modeSetup {
			return nil
		}
		var rep *experiments.Report
		rec.measure(func() { phase("measured", func() { rep, err = entry.Run(sc) }) })
		if err != nil {
			return err
		}
		rec.MemoHits = runner.Shared().Stats().Hits
		if err := rec.digest(rep); err != nil {
			return err
		}
		if cfgs, err = fig9Points(sc); err != nil {
			return err
		}
		results, err = derivePoints(cfgs)
		return err
	}()
	profCPU := cpuSeconds() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	for i, r := range results {
		rec.Work.add(&cfgs[i], r)
	}
	if mode == modeTraced {
		tr, err := traceRecord(profPath, cfgs)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		tr.CPUS = profCPU
		rec.Traced = tr
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rec
}

// phase runs f with the pprof label phase=name, which goroutines f starts
// inherit.
func phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}

// measure times f as the measured phase: wall and CPU seconds, heap bytes
// allocated and collections run.
func (rec *repRecord) measure(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t := time.Now()
	f()
	rec.WallS = time.Since(t).Seconds()
	rec.CPUS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	rec.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rec.GCCount = m1.NumGC - m0.NumGC
}

// digest fingerprints the simulated output: the canonical JSON of the
// sim.Results, or of the experiments.Report.
func (rec *repRecord) digest(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	rec.Digest = hex.EncodeToString(sum[:])
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// traceRecord folds the profile onto layers, then drives every point again
// as sim.NewSystem followed by System.Step to count steps, and times the
// benchmark's own SaveState/LoadState of each finished system. Both happen
// after the profile stopped.
func traceRecord(profPath string, cfgs []sim.Config) (*traced, error) {
	gz, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	tr := &traced{Profile: attribute(samples)}
	outs := make([]replayOut, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i], errs[i] = replay(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, o := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		tr.Steps += o.steps
		tr.SaveS += o.save.Seconds()
		tr.LoadS += o.load.Seconds()
		tr.ImageMB += float64(o.image) / (1 << 20)
	}
	return tr, nil
}

type replayOut struct {
	steps      uint64
	save, load time.Duration
	image      int
}

func replay(cfg sim.Config) (replayOut, error) {
	var o replayOut
	s, err := sim.NewSystem(cfg)
	if err != nil {
		return o, err
	}
	defer s.Close()
	max := s.MaxCycles()
	for o.steps = 1; s.Step(max); o.steps++ {
	}
	if !s.Finished() {
		return o, fmt.Errorf("step replay: cores did not finish their budget")
	}
	t := time.Now()
	img, err := s.SaveState()
	o.save = time.Since(t)
	if err != nil {
		return o, err
	}
	o.image = len(img)
	fresh, err := sim.NewSystem(cfg)
	if err != nil {
		return o, err
	}
	defer fresh.Close()
	t = time.Now()
	err = fresh.LoadState(img)
	o.load = time.Since(t)
	if err != nil {
		return o, err
	}
	again, err := fresh.SaveState()
	if err != nil {
		return o, err
	}
	if !bytes.Equal(again, img) {
		return o, fmt.Errorf("snapshot round trip changed the %d-byte image", len(img))
	}
	return o, nil
}
