package main

import (
	"fmt"

	"clip/internal/core"
	"clip/internal/experiments"
	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/workload"
)

// fig9Points lists every distinct simulation Fig9 submits at sc: for each
// homogeneous and heterogeneous mix at the 8-channel point, the
// no-prefetch baseline and the four paper prefetchers alone and with CLIP,
// plus each benchmark's alone run. The experiments package keeps this
// enumeration private; derivePoints checks the copy against the run cache,
// so a figure that drifts from it fails the run instead of being
// miscounted.
func fig9Points(sc experiments.Scale) ([]sim.Config, error) {
	channels, transfer := channelsFor(8, sc.Cores)
	tmpl := sim.DefaultConfig(sc.Cores, channels, sc.CacheDiv)
	tmpl.TransferCycles = transfer
	tmpl.InstrPerCore = sc.InstrPerCore
	tmpl.WarmupInstr = sc.Warmup
	tmpl.Seed = sc.Seed

	hom, err := preferredHomMixes(sc.Cores, sc.HomMixes)
	if err != nil {
		return nil, err
	}
	mixes := append(hom, workload.Heterogeneous(sc.HetMixes, sc.Cores, sc.Seed)...)

	var cfgs []sim.Config
	seen := map[string]bool{}
	add := func(cfg sim.Config) {
		if k := runner.Fingerprint(&cfg); !seen[k] {
			seen[k] = true
			cfgs = append(cfgs, cfg)
		}
	}
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			alone := tmpl
			alone.Workload = []string{b}
			add(alone)
		}
		base := tmpl
		base.Workload = append([]string{}, m.Benchmarks...)
		add(base)
		for _, pf := range []string{"berti", "ipcp", "bingo", "spppf"} {
			v := base
			v.Prefetcher = pf
			add(v)
			cc := core.DefaultConfig()
			v.CLIP = &cc
			add(v)
		}
	}
	return cfgs, nil
}

// channelsFor maps a paper channel count for 64 cores onto cores,
// preserving per-core bandwidth, as the experiments package does.
func channelsFor(paperCh, cores int) (channels, transfer int) {
	eff := float64(paperCh) / 64 * float64(cores)
	if eff >= 1 {
		return int(eff + 0.5), 10
	}
	return 1, int(10/eff + 0.5)
}

// preferredHomMixes is the experiments package's quick homogeneous subset.
func preferredHomMixes(cores, n int) ([]workload.Mix, error) {
	prefer := []string{"619.lbm_s-2676B", "605.mcf_s-1554B", "603.bwaves_s-1740B", "620.omnetpp_s-141B"}
	if n > len(prefer) {
		return nil, fmt.Errorf("fig9 points: %d homogeneous mixes requested, %d mirrored", n, len(prefer))
	}
	byName := map[string]workload.Mix{}
	for _, m := range workload.Homogeneous(cores, 0) {
		byName[m.Name] = m
	}
	var out []workload.Mix
	for _, name := range prefer[:n] {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("fig9 points: no homogeneous mix %q", name)
		}
		out = append(out, m)
	}
	return out, nil
}

// derivePoints reads the result of every configuration from the
// process-wide run cache the figure just filled. Each lookup must be a hit
// and the configurations must account for every execution, or the copy in
// fig9Points has drifted from the figure.
func derivePoints(cfgs []sim.Config) ([]*sim.Result, error) {
	cache := runner.Shared()
	before := cache.Stats()
	if int(before.Executions) != len(cfgs) {
		return nil, fmt.Errorf("fig9 points: figure executed %d simulations, benchmark enumerates %d",
			before.Executions, len(cfgs))
	}
	res := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := cache.Run(cfg)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	if after := cache.Stats(); after.Executions != before.Executions {
		return nil, fmt.Errorf("fig9 points: %d enumerated configurations were not run by the figure",
			after.Executions-before.Executions)
	}
	return res, nil
}
