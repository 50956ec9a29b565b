package main

import (
	"clip/internal/cache"
	"clip/internal/sim"
)

// work sums the simulated work counters of one or more sim.Results. Every
// field is a deterministic function of the configurations run.
type work struct {
	Points     uint64 `json:"points"`
	Finished   uint64 `json:"finished"`
	Instr      uint64 `json:"instr"`       // measured-phase retired instructions
	Budget     uint64 `json:"budget"`      // measured-phase instruction budgets
	RunInstr   uint64 `json:"run_instr"`   // warmup plus measured instruction budgets
	Cycles     uint64 `json:"cycles"`      // measured cycles, summed over points
	CoreCycles uint64 `json:"core_cycles"` // measured cycles, summed over cores
	ROBStall   uint64 `json:"rob_stall"`

	L1Acc, L1Miss, L2Acc, L2Miss, LLCAcc, LLCMiss uint64
	CacheAcc, MSHRFull                            uint64

	PFGenerated, PFIssued, PFUseful, PFFills uint64
	ClipAllowed, ClipDropped                 uint64

	Flits, NoCLatSum, NoCLatCount, LinkBusy, LinkSlotCycles uint64

	DRAMReq, DRAMBusy, DRAMCycles, RowHits, RowAll, QDelaySum, QDelayCount uint64
}

func (w *work) add(cfg *sim.Config, r *sim.Result) {
	w.Points++
	if r.Finished {
		w.Finished++
	}
	w.Budget += uint64(cfg.Cores()) * cfg.InstrPerCore
	w.RunInstr += uint64(cfg.Cores()) * (cfg.InstrPerCore + cfg.WarmupInstr)
	w.Cycles += r.Cycles
	for i := range r.CoreStats {
		cs := &r.CoreStats[i]
		w.Instr += cs.Retired
		w.CoreCycles += cs.Cycles
		w.ROBStall += cs.ROBStallCycles
	}
	w.L1Acc += r.L1.DemandAccesses
	w.L1Miss += r.L1.DemandMisses
	w.L2Acc += r.L2.DemandAccesses
	w.L2Miss += r.L2.DemandMisses
	w.LLCAcc += r.LLC.DemandAccesses
	w.LLCMiss += r.LLC.DemandMisses
	for _, s := range []*cache.Stats{&r.L1, &r.L2, &r.LLC} {
		w.CacheAcc += s.DemandAccesses + s.StoreAccesses
		w.MSHRFull += s.MSHRFullEvents
		w.PFUseful += s.PFUseful + s.PFLate
		w.PFFills += s.PFFills + s.PFLate
	}
	w.PFGenerated += r.PFGenerated
	w.PFIssued += r.PFIssued
	if r.Clip != nil {
		w.ClipAllowed += r.Clip.Allowed
		w.ClipDropped += r.Clip.TotalDropped()
	}
	w.Flits += r.NoC.Flits
	w.NoCLatSum += r.NoC.HighLatency.Sum + r.NoC.LowLatency.Sum
	w.NoCLatCount += r.NoC.HighLatency.Count + r.NoC.LowLatency.Count
	w.LinkBusy += r.NoC.LinkBusy
	// The mesh reserves four directed link slots per node.
	w.LinkSlotCycles += r.NoC.Cycles * 4 * uint64(cfg.Cores())
	d := &r.DRAM
	w.DRAMReq += d.Reads + d.Writes
	w.DRAMBusy += d.BusBusyCycles
	w.DRAMCycles += d.Cycles
	w.RowHits += d.RowHits
	w.RowAll += d.RowHits + d.RowMisses + d.RowConflicts
	w.QDelaySum += d.QueueDelay.Sum
	w.QDelayCount += d.QueueDelay.Count
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
