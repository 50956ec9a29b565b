package sim

import (
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
)

// This file is the commit phase of the two-phase tick: the serial replay of
// everything the concurrent tile phase staged. Commitment order is ascending
// core index — exactly the order the old serial per-core loop performed the
// same side effects — and nothing between the tile phase and the commit
// advances the mesh or DRAM clocks, so a staged effect is byte-identical to
// the direct one. The rest of the cycle (mesh, LLC slices, DRAM, response
// delivery, throttlers) runs serially after the commit, unchanged.

// seal forbids (clipdebug builds) direct mutation of the shared mesh and
// DRAM for the duration of the tile phase. Release builds compile this to
// nothing.
func (s *System) seal() {
	if invariant.Enabled {
		s.mesh.Seal()
		s.dram.Seal()
	}
}

// unseal re-permits direct mesh/DRAM mutation for the commit phase and the
// serial tail.
func (s *System) unseal() {
	if invariant.Enabled {
		s.mesh.Unseal()
		s.dram.Unseal()
	}
}

// commit replays the staged effects of the tiles that ran this cycle, plus
// those still holding staged direct-DRAM reads, in ascending core index:
// the counter deltas, the NoC injections, and the head of the direct-DRAM
// queue. A tile that did not run staged nothing, so passing it over leaves
// the replay order unchanged.
func (s *System) commit() {
	for wi, w := range s.tileRun {
		w |= s.dramWait[wi]
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			i := wi<<6 + int(b)
			st := &s.stage[i]
			s.coresTicked += st.ticked
			st.ticked = 0
			s.finished += st.finished
			st.finished = 0
			st.sends.FlushTo(s.mesh)
			if invariant.Enabled {
				invariant.Check(st.sends.Len() == 0,
					"sim: tile %d staging not empty after flush", i)
			}
			if st.dramQ.Len() > 0 {
				// Only commit pops the queue, so its wait bit changes here.
				s.drainDirectDRAM(i)
				if st.dramQ.Len() > 0 {
					s.dramWait[wi] |= 1 << b
				} else {
					s.dramWait[wi] &^= 1 << b
				}
			}
		}
	}
}

// drainDirectDRAM issues tile i's staged direct-DRAM reads (Hermes bypass
// loads and mispredicted-probe waste reads) to the controller in staging
// order. A bypass load refused by a full read queue stays at the head and
// retries next cycle — head-of-line, preserving the queue's request order;
// waste reads are droppable prefetches the controller always accepts.
func (s *System) drainDirectDRAM(i int) {
	q := &s.stage[i].dramQ
	for q.Len() > 0 {
		e := q.Front()
		if !s.dram.Issue(&e.req) {
			break
		}
		if e.bypass {
			s.hermesBypass[bypassKey(i, e.req.Addr)]++
		}
		q.PopFront()
	}
}

// hermesFillPath is the on-chip latency a Hermes-accelerated fill still
// pays on its way to the L1 (LLC+L2 fill pipeline and the return NoC hops);
// the bypass only removes the serialized cache *walk* before DRAM.
const hermesFillPath = 45

// deliverHermesHeld completes bypassed fills whose on-chip path elapsed.
// The cached minimum DoneCycle makes the common no-delivery cycle a single
// compare instead of a scan-and-recopy of every held response.
//
//clipvet:slab
func (s *System) deliverHermesHeld(cy uint64) {
	if len(s.hermesHold) == 0 || cy < s.hermesNext {
		return
	}
	rest := s.hermesHold[:0]
	next := mem.NoEvent
	for i := range s.hermesHold {
		r := &s.hermesHold[i]
		if r.DoneCycle > cy {
			if r.DoneCycle < next {
				next = r.DoneCycle
			}
			rest = append(rest, *r) //clipvet:allocok compaction append into [:0]; never exceeds original capacity
			continue
		}
		slice := s.sliceOf(r.Req.Addr)
		s.wakeSlice(slice, cy+1)
		s.wakeTile(r.Req.Core, cy+1)
		s.llc[slice].Fill(r)
		s.l2[r.Req.Core].Fill(r)
		s.l1d[r.Req.Core].Fill(r)
	}
	s.hermesHold, s.hermesNext = rest, next
}

// deliverDRAM routes matured DRAM responses. Nothing matures on most cycles,
// so the cached minimum DoneCycle turns those into a single compare.
//
//clipvet:slab
func (s *System) deliverDRAM(cy uint64) {
	if len(s.dramPending) == 0 || cy < s.dramNext {
		return
	}
	rest := s.dramPending[:0]
	next := mem.NoEvent
	for i := range s.dramPending {
		r := &s.dramPending[i]
		if r.DoneCycle > cy {
			if r.DoneCycle < next {
				next = r.DoneCycle
			}
			rest = append(rest, *r) //clipvet:allocok compaction append into [:0]; never exceeds original capacity
			continue
		}
		key := bypassKey(r.Req.Core, r.Req.Addr)
		if n, ok := s.hermesBypass[key]; ok && n > 0 && r.Req.Type == mem.Load {
			if n == 1 {
				delete(s.hermesBypass, key)
			} else {
				s.hermesBypass[key] = n - 1
			}
			// Bypass fill: hold it for the on-chip fill path Hermes still
			// traverses, then wake the L1 MSHR and install copies.
			held := *r
			held.DoneCycle = cy + hermesFillPath
			if held.DoneCycle < s.hermesNext {
				s.hermesNext = held.DoneCycle
			}
			s.hermesHold = append(s.hermesHold, held) //clipvet:allocok retry ring retains capacity across ticks
			continue
		}
		slice := s.sliceOf(r.Req.Addr)
		s.wakeSlice(slice, cy+1)
		s.llc[slice].Fill(r)
	}
	s.dramPending, s.dramNext = rest, next
}
