// Command perfbench is the repository benchmark. It runs one workload
// (busy-8c, constrained-64c or fig9-cold) as repeated cold repetitions,
// each in a fresh process, checks that every repetition simulated the same
// output to completion, and prints the end-to-end metrics (--trace 0) or,
// from an extra CPU-profiled repetition, the per-layer metrics (--trace 1).
// The last line of standard output is one JSON object. README.md documents
// the workloads and metrics; run.sh builds and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runBudget bounds a whole run; no repetition starts once it is spent.
const runBudget = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: busy-8c, constrained-64c or fig9-cold")
	seed := fs.Uint64("seed", 1, "input seed: picks the heterogeneous mix and seeds the simulation")
	seconds := fs.Float64("seconds", 10, "measure repetitions for this long")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a profiled repetition")
	child := fs.String("child", "", "internal: run one repetition in this process (run, setup or traced)")
	t0 := fs.Int64("t0", 0, "internal: spawn time of a child, Unix nanoseconds")
	prof := fs.String("profile", "", "internal: CPU profile path of a traced child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *child != "" {
		rec := runChild(w, *child, *seed, time.Unix(0, *t0), *prof)
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := orchestrate(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orchestrate spawns the repetitions of one run and summarises them.
func orchestrate(w *benchWorkload, seed uint64, seconds time.Duration, trace bool, out io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	start := time.Now()
	spawn := func(mode, prof string) (*repRecord, error) {
		return spawnChild(ctx, self, w.name, seed, mode, prof)
	}

	res := &result{Metrics: map[string]metric{}}
	var reps []*repRecord
	var calib []float64
	var failures []string
	fail := func(what string, err error) {
		res.Failed++
		failures = append(failures, fmt.Sprintf("%s: %v", what, err))
	}
	// After minReps, a repetition starts only if at least half of it is
	// expected to fall within --seconds.
	var last time.Duration
	for i := 0; i < w.minReps || time.Since(start)+last/2 < seconds; i++ {
		if time.Since(start)+last > runBudget-10*time.Second {
			break
		}
		calib = append(calib, calibrate())
		t := time.Now()
		rec, err := spawn(modeRun, "")
		last = time.Since(t)
		res.Attempted++
		if err != nil {
			fail(fmt.Sprintf("repetition %d", i+1), err)
			continue
		}
		reps = append(reps, rec)
	}
	setups := make([]float64, 0, len(reps)+w.setupProbes)
	for _, r := range reps {
		setups = append(setups, r.SetupS)
	}
	for i := 0; i < w.setupProbes; i++ {
		res.Attempted++
		rec, err := spawn(modeSetup, "")
		if err != nil {
			fail(fmt.Sprintf("set-up probe %d", i+1), err)
			continue
		}
		setups = append(setups, rec.SetupS)
	}
	var tr *repRecord
	if trace {
		prof := filepath.Join(filepath.Dir(self), "perfbench-"+w.name+".pprof")
		res.Attempted++
		if tr, err = spawn(modeTraced, prof); err != nil {
			fail("traced repetition", err)
		}
	}

	// Correctness gate: one digest across every repetition, every core of
	// every simulation finished its budget.
	all := reps
	if tr != nil {
		all = append(append([]*repRecord{}, reps...), tr)
	}
	for i, r := range all {
		if r.Work.Finished != r.Work.Points {
			fail(fmt.Sprintf("repetition %d", i+1), fmt.Errorf("%d of %d simulations left cores unfinished",
				r.Work.Points-r.Work.Finished, r.Work.Points))
		} else if r.Digest != all[0].Digest {
			fail(fmt.Sprintf("repetition %d", i+1), fmt.Errorf("digest %.12s differs from %.12s", r.Digest, all[0].Digest))
		}
	}
	res.Correct = res.Failed == 0 && len(reps) > 0 && (!trace || tr != nil)

	fmt.Fprintf(out, "perfbench %s seed=%d: %d cold repetitions in fresh processes, GOMAXPROCS=%d, %.1fs\n",
		w.name, seed, len(reps), runtime.NumCPU(), time.Since(start).Seconds())
	for _, f := range failures {
		fmt.Fprintln(out, "  FAILED", f)
	}
	if len(reps) == 0 {
		return res, nil
	}
	if res.Correct {
		fmt.Fprintf(out, "  digest sha256:%s identical in %d/%d repetitions; %d simulation(s), every core finished\n",
			all[0].Digest, len(all), len(all), all[0].Work.Points)
	}
	fmt.Fprintln(out, "  the simulated model is unvalidated against hardware; no error figure is given")
	fmt.Fprintf(out, "  host-drift witness (annotation, not a metric): calibration kernel ms per repetition %s\n",
		formatList(calib, 1))

	if !trace {
		m, samples := endToEnd(reps, setups)
		res.Metrics = m
		printMetrics(out, m, samples)
		return res, nil
	}
	if tr == nil || tr.Traced == nil {
		return res, nil
	}
	res.Metrics = perLayer(reps, tr)
	printMetrics(out, res.Metrics, nil)
	return res, nil
}

// spawnChild runs one repetition in a fresh process with GOMAXPROCS set to
// the host's CPU count and returns its record.
func spawnChild(ctx context.Context, self, name string, seed uint64, mode, prof string) (*repRecord, error) {
	args := []string{"--child", mode, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--t0", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if prof != "" {
		args = append(args, "--profile", prof)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	rec := &repRecord{}
	if err := json.Unmarshal(line, rec); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	if rec.Err != "" {
		return nil, errors.New(rec.Err)
	}
	return rec, nil
}

// endToEnd takes the median of each end-to-end metric over repetitions and
// also returns the samples behind each median.
func endToEnd(reps []*repRecord, setups []float64) (map[string]metric, map[string][]float64) {
	defs := []struct {
		name, unit string
		f          func(r *repRecord) float64
	}{
		{"wall_s", "s", func(r *repRecord) float64 { return r.WallS }},
		{"kinstr_per_s", "kinstr/s", func(r *repRecord) float64 { return float64(r.Work.Budget) / 1e3 / r.WallS }},
		{"cycles_per_s", "cycles/s", func(r *repRecord) float64 { return float64(r.Work.Cycles) / r.WallS }},
		{"cpu_s", "s", func(r *repRecord) float64 { return r.CPUS }},
		{"alloc_mb", "MB", func(r *repRecord) float64 { return r.AllocMB }},
		{"peak_rss_mb", "MB", func(r *repRecord) float64 { return r.PeakRSSMB }},
	}
	m := map[string]metric{"setup_s": {median(setups), "s"}}
	samples := map[string][]float64{"setup_s": setups}
	for _, d := range defs {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = d.f(r)
		}
		m[d.name] = metric{median(v), d.unit}
		samples[d.name] = v
	}
	return m, samples
}

// perLayer combines the traced repetition's profile, step count and
// snapshot timers with the untraced repetitions' work counters and medians.
func perLayer(reps []*repRecord, tr *repRecord) map[string]metric {
	t := tr.Traced
	p := &t.Profile
	wk := &reps[0].Work
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".self_s"] = metric{p.Self[l], "s"}
		m[l+".incl_s"] = metric{p.Incl[l], "s"}
	}
	m["runtime.gc_s"] = metric{p.Self[gcBucket], "s"}
	m["other.self_s"] = metric{p.Self[otherBucket], "s"}
	m["profile.sampled_s"] = metric{p.TotalS, "s"}
	m["profile.cpu_s"] = metric{t.CPUS, "s"}

	// Host cost per unit of work: measured-phase self time over the
	// measured phase's simulated work.
	perUnit := func(name, layer, unit string, n uint64) {
		m[name] = metric{1e9 * p.PhaseSel[layer] / float64(n), unit}
	}
	perUnit("cpu.ns_per_instr", "cpu", "ns/instr", wk.Instr)
	perUnit("cache.ns_per_access", "cache", "ns/access", wk.CacheAcc)
	perUnit("prefetch.ns_per_candidate", "prefetch", "ns/candidate", wk.PFGenerated)
	perUnit("clip.ns_per_decision", "clip", "ns/decision", wk.ClipAllowed+wk.ClipDropped)
	perUnit("noc.ns_per_flit", "noc", "ns/flit", wk.Flits)
	perUnit("dram.ns_per_request", "dram", "ns/request", wk.DRAMReq)
	m["sim.ns_per_step"] = metric{1e9 * p.Self["sim"] / float64(t.Steps), "ns/step"}

	m["snapshot.save_s"] = metric{t.SaveS, "s"}
	m["snapshot.load_s"] = metric{t.LoadS, "s"}
	m["snapshot.image_mb"] = metric{t.ImageMB, "MB"}

	m["sim.steps"] = metric{float64(t.Steps), "count"}
	m["sim.steps_per_kinstr"] = metric{float64(t.Steps) / (float64(wk.RunInstr) / 1e3), "steps/kinstr"}
	m["cpu.instructions"] = metric{float64(wk.Instr), "count"}
	m["cpu.rob_stall_frac"] = metric{ratio(wk.ROBStall, wk.CoreCycles), "frac"}
	m["l1.accesses"] = metric{float64(wk.L1Acc), "count"}
	m["l1.miss_frac"] = metric{ratio(wk.L1Miss, wk.L1Acc), "frac"}
	m["l2.miss_frac"] = metric{ratio(wk.L2Miss, wk.L2Acc), "frac"}
	m["llc.miss_frac"] = metric{ratio(wk.LLCMiss, wk.LLCAcc), "frac"}
	m["cache.mshr_full"] = metric{float64(wk.MSHRFull), "count"}
	m["prefetch.generated"] = metric{float64(wk.PFGenerated), "count"}
	m["prefetch.issued"] = metric{float64(wk.PFIssued), "count"}
	m["prefetch.useful_frac"] = metric{ratio(wk.PFUseful, wk.PFFills), "frac"}
	m["clip.allowed"] = metric{float64(wk.ClipAllowed), "count"}
	m["clip.dropped"] = metric{float64(wk.ClipDropped), "count"}
	m["noc.flits"] = metric{float64(wk.Flits), "count"}
	m["noc.latency_cy"] = metric{ratio(wk.NoCLatSum, wk.NoCLatCount), "cycles"}
	m["noc.link_util"] = metric{ratio(wk.LinkBusy, wk.LinkSlotCycles), "frac"}
	m["dram.requests"] = metric{float64(wk.DRAMReq), "count"}
	m["dram.util"] = metric{ratio(wk.DRAMBusy, wk.DRAMCycles), "frac"}
	m["dram.row_hit_frac"] = metric{ratio(wk.RowHits, wk.RowAll), "frac"}
	m["dram.queue_delay_cy"] = metric{ratio(wk.QDelaySum, wk.QDelayCount), "cycles"}

	wall := medianOf(reps, func(r *repRecord) float64 { return r.WallS })
	cpu := medianOf(reps, func(r *repRecord) float64 { return r.CPUS })
	m["engine.points"] = metric{float64(wk.Points), "count"}
	m["engine.memo_hits"] = metric{float64(reps[0].MemoHits), "count"}
	m["engine.cpu_util"] = metric{cpu / (wall * float64(reps[0].Workers)), "frac"}
	m["gc.count"] = metric{medianOf(reps, func(r *repRecord) float64 { return float64(r.GCCount) }), "count"}
	m["gc.cpu_frac"] = metric{p.Self[gcBucket] / p.TotalS, "frac"}

	m["trace.overhead_s"] = metric{tr.WallS - wall, "s"}
	m["trace.overhead_frac"] = metric{tr.WallS/wall - 1, "frac"}
	return m
}

func medianOf(reps []*repRecord, f func(r *repRecord) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64{}, v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// calibrate times a fixed CPU-bound kernel, in milliseconds. It is printed
// next to each repetition so a reader can tell a slow host window from a
// slow program.
func calibrate() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t).Microseconds()) / 1e3
}

var calibSink uint64

func formatList(v []float64, prec int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

// printMetrics writes a human-readable table; where samples are given it
// adds the range and count behind each median.
func printMetrics(out io.Writer, m map[string]metric, samples map[string][]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-26s %14.6g %-12s", k, m[k].Value, m[k].Unit)
		if v := samples[k]; len(v) > 0 {
			s := append([]float64{}, v...)
			sort.Float64s(s)
			fmt.Fprintf(out, " median of n=%d, range %.6g..%.6g", len(s), s[0], s[len(s)-1])
		}
		fmt.Fprintln(out)
	}
}
