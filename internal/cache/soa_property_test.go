package cache

import (
	"testing"

	"clip/internal/mem"
)

// This file pins the column-major tag/metadata kernels to the per-way entry
// loops they replaced, in the style of internal/table/bitmap_test.go: a naive
// reference model built from per-way structs is driven through the same
// random operation sequence, and every lookup, free-way pick and victim
// choice must agree — same visit order, same LRU decisions.

// naiveWay mirrors one way's metadata as the pre-SoA entry struct held it.
type naiveWay struct {
	valid bool
	tag   uint64
	dirty bool
	pf    bool
	stamp uint64 // LRU last-touch
}

// naiveSets is the per-way reference model for an LRU cache: a slice of
// entry structs per set, scanned with the plain loops the slabs replaced.
type naiveSets struct {
	sets  [][]naiveWay
	clock uint64
}

func newNaiveSets(sets, ways int) *naiveSets {
	n := &naiveSets{sets: make([][]naiveWay, sets)}
	for s := range n.sets {
		n.sets[s] = make([]naiveWay, ways)
	}
	return n
}

// findWay is the original per-way scan: first way with a matching valid tag.
func (n *naiveSets) findWay(set int, tag uint64) int {
	for w := range n.sets[set] {
		if n.sets[set][w].valid && n.sets[set][w].tag == tag {
			return w
		}
	}
	return -1
}

// install replays the original install decision order: update-if-present,
// else lowest invalid way, else the LRU victim (strictly-less scan, so the
// first minimum-stamp way wins).
func (n *naiveSets) install(set int, tag uint64, dirty, pf bool) int {
	ws := n.sets[set]
	if w := n.findWay(set, tag); w >= 0 {
		if dirty {
			ws[w].dirty = true
		}
		return w
	}
	way := -1
	for w := range ws {
		if !ws[w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = 0
		for w := 1; w < len(ws); w++ {
			if ws[w].stamp < ws[way].stamp {
				way = w
			}
		}
	}
	n.clock++
	ws[way] = naiveWay{valid: true, tag: tag, dirty: dirty, pf: pf, stamp: n.clock}
	return way
}

func (n *naiveSets) touch(set, way int) {
	n.clock++
	n.sets[set][way].stamp = n.clock
}

// TestFindWayInstallMatchesNaive drives random install/hit/probe sequences
// through a real LRU cache's column kernels and the naive per-way model in
// lockstep: every placement (free-way pick and LRU victim), every findWay
// answer and every per-way dirty/prefetch bit must match. Way counts cover
// single-way, partial-word and the full 64-way bitmap word.
func TestFindWayInstallMatchesNaive(t *testing.T) {
	for _, ways := range []int{1, 4, 7, 16, 64} {
		const sets = 8
		c, err := New(Config{
			Name: "prop", Level: mem.LevelL2, Sets: sets, Ways: ways,
			MSHRs: 4, Ports: 1, Policy: "lru",
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveSets(sets, ways)
		rng := mem.NewPRNG(uint64(ways)*1297 + 7)
		// Keep the tag universe ~2x the per-set capacity so installs exercise
		// free-way picks, hits and victim evictions in one stream.
		tagSpace := uint64(2 * ways)
		for step := 0; step < 5000; step++ {
			set := rng.Intn(sets)
			tag := rng.Uint64() % tagSpace
			addr := mem.Addr((tag<<3 | uint64(set)) << mem.LineShift) // 3 = log2(sets)
			switch {
			case rng.Bool(0.55): // fill (install)
				dirty := rng.Bool(0.3)
				typ := mem.Load
				if rng.Bool(0.4) {
					typ = mem.Prefetch
				}
				req := mem.Request{Addr: addr, Type: typ, IssueCycle: uint64(step)}
				c.install(&req, dirty)
				wantWay := ref.install(set, tag, dirty, typ == mem.Prefetch)
				gotWay := c.findWay(set, tag)
				if gotWay != wantWay {
					t.Fatalf("ways=%d step=%d: install placed tag %#x at way %d, naive model at %d",
						ways, step, tag, gotWay, wantWay)
				}
			case rng.Bool(0.5): // demand touch of a (possibly absent) line
				w := c.findWay(set, tag)
				if want := ref.findWay(set, tag); w != want {
					t.Fatalf("ways=%d step=%d: findWay(set=%d, tag=%#x)=%d want %d",
						ways, step, set, tag, w, want)
				}
				if w >= 0 {
					c.policy.OnHit(set, w)
					ref.touch(set, w)
				}
			default: // probe only
				want := ref.findWay(set, tag) >= 0
				if got := c.Probe(addr); got != want {
					t.Fatalf("ways=%d step=%d: Probe(%#x)=%v want %v", ways, step, addr, got, want)
				}
			}
			// Bitmap columns must mirror the per-way bools exactly.
			for w := 0; w < ways; w++ {
				bit := uint64(1) << uint(w)
				e := ref.sets[set][w]
				if got := c.validBits[set]&bit != 0; got != e.valid {
					t.Fatalf("ways=%d step=%d: validBits[%d] way %d = %v want %v",
						ways, step, set, w, got, e.valid)
				}
				if got := c.dirtyBits[set]&bit != 0; got != (e.valid && e.dirty) {
					t.Fatalf("ways=%d step=%d: dirtyBits[%d] way %d = %v want %v",
						ways, step, set, w, got, e.dirty)
				}
				if got := c.pfBits[set]&bit != 0; got != (e.valid && e.pf) {
					t.Fatalf("ways=%d step=%d: pfBits[%d] way %d = %v want %v",
						ways, step, set, w, got, e.pf)
				}
			}
		}
	}
}

// naivePolicy mirrors the pre-column replacement state as per-way structs:
// LRU stamps, NRU referenced bools with clear-on-saturation, SRRIP RRPV
// counters with the age-until-found loop.
type naivePolicy struct {
	kind  string
	ways  int
	stamp [][]uint64
	ref   [][]bool
	rrpv  [][]uint8
	clock uint64
}

func newNaivePolicy(kind string, sets, ways int) *naivePolicy {
	n := &naivePolicy{kind: kind, ways: ways}
	n.stamp = make([][]uint64, sets)
	n.ref = make([][]bool, sets)
	n.rrpv = make([][]uint8, sets)
	for s := 0; s < sets; s++ {
		n.stamp[s] = make([]uint64, ways)
		n.ref[s] = make([]bool, ways)
		n.rrpv[s] = make([]uint8, ways)
		for w := range n.rrpv[s] {
			n.rrpv[s][w] = rrpvMax
		}
	}
	return n
}

func (n *naivePolicy) touch(set, way int, fill bool) {
	switch n.kind {
	case "lru":
		n.clock++
		n.stamp[set][way] = n.clock
	case "nru":
		n.ref[set][way] = true
		all := true
		for _, r := range n.ref[set] {
			all = all && r
		}
		if all {
			for w := range n.ref[set] {
				n.ref[set][w] = false
			}
			n.ref[set][way] = true
		}
	case "srrip":
		if fill {
			n.rrpv[set][way] = rrpvMax - 1
		} else {
			n.rrpv[set][way] = 0
		}
	}
}

func (n *naivePolicy) victim(set int) int {
	switch n.kind {
	case "lru":
		best := 0
		for w := 1; w < n.ways; w++ {
			if n.stamp[set][w] < n.stamp[set][best] {
				best = w
			}
		}
		return best
	case "nru":
		for w := 0; w < n.ways; w++ {
			if !n.ref[set][w] {
				return w
			}
		}
		return 0
	default: // srrip
		for {
			for w := 0; w < n.ways; w++ {
				if n.rrpv[set][w] == rrpvMax {
					return w
				}
			}
			for w := 0; w < n.ways; w++ {
				n.rrpv[set][w]++
			}
		}
	}
}

// TestPolicyVictimMatchesNaiveLoops checks every replacement policy's column
// kernels against the per-way reference loops: random OnHit/OnFill/Victim
// sequences must produce identical victim choices at every step.
func TestPolicyVictimMatchesNaiveLoops(t *testing.T) {
	for _, kind := range []string{"lru", "nru", "srrip"} {
		for _, ways := range []int{1, 3, 8, 64} {
			const sets = 4
			p := NewPolicy(kind, sets, ways)
			ref := newNaivePolicy(kind, sets, ways)
			rng := mem.NewPRNG(uint64(len(kind))*31 + uint64(ways))
			req := mem.Request{Type: mem.Load}
			for step := 0; step < 4000; step++ {
				set := rng.Intn(sets)
				way := rng.Intn(ways)
				switch {
				case rng.Bool(0.4):
					p.OnHit(set, way)
					ref.touch(set, way, false)
				case rng.Bool(0.5):
					p.OnFill(set, way, &req)
					ref.touch(set, way, true)
				default:
					got, want := p.Victim(set), ref.victim(set)
					if got != want {
						t.Fatalf("%s ways=%d step=%d: Victim(%d)=%d want %d",
							kind, ways, step, set, got, want)
					}
				}
			}
		}
	}
}
