package sim

import (
	"bytes"
	"reflect"
	"testing"

	"clip/internal/cache"
	"clip/internal/mem"
	"clip/internal/snapshot"
)

// These tests pin the two retry loops that stop at the first refusal — the
// LLC retry ring drain and corePort.Tick — to the loops they replaced,
// which offered every entry on every call. Each reference model is written
// out below; a saturated cache driven by both must end every cycle with the
// same queue order and byte-identical cache state.

// delayLower answers every miss after a fixed latency, so a cache with few
// MSHRs saturates under a burst and drains after it. Writebacks are
// absorbed.
type delayLower struct {
	now     uint64
	pending []mem.Response
}

func (d *delayLower) Issue(req *mem.Request) bool {
	if req.Type != mem.Writeback {
		d.pending = append(d.pending, mem.Response{Req: *req, ServedBy: mem.LevelDRAM, DoneCycle: d.now + 12})
	}
	return true
}

func (d *delayLower) deliver(c *cache.Cache, cy uint64) {
	d.now = cy
	rest := d.pending[:0]
	for _, r := range d.pending {
		if r.DoneCycle <= cy {
			c.Fill(&r)
		} else {
			rest = append(rest, r)
		}
	}
	d.pending = rest
}

func cacheImage(t *testing.T, c *cache.Cache) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	c.Save(w)
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ringContents(q *mem.Ring[mem.Request]) []mem.Request {
	out := make([]mem.Request, q.Len())
	for i := range out {
		out[i] = *q.At(i)
	}
	return out
}

// rotateLLCRetry is the reference model: the former drain offered every
// queued request once per cycle and rotated each refused one to the back.
func rotateLLCRetry(q *mem.Ring[mem.Request], l *cache.Cache) {
	for n := q.Len(); n > 0; n-- {
		req := q.PopFront()
		if !l.Issue(&req) {
			q.Push(req)
		}
	}
}

// llcArrival draws one request as the mesh delivers it to a slice: an L2
// miss (demands, and prefetches Owned by the L2 MSHR that sent them) or an
// L2 writeback.
func llcArrival(rng *mem.PRNG, cy uint64) mem.Request {
	req := mem.Request{Addr: mem.Addr(rng.Uint64()%256) * mem.LineBytes, IssueCycle: cy, ROBIndex: -1}
	switch rng.Intn(4) {
	case 0:
		req.Type = mem.Load
	case 1:
		req.Type = mem.Store
	case 2:
		req.Type, req.Owned, req.FillLevel = mem.Prefetch, true, mem.LevelL2
	default:
		req.Type = mem.Writeback
	}
	return req
}

func TestLLCRetryDrainMatchesRotation(t *testing.T) {
	cfg := cache.Config{Name: "llc", Level: mem.LevelLLC, Sets: 16, Ways: 4,
		Latency: 2, MSHRs: 2, Ports: 1, InQ: 3, Policy: "lru"}
	var stopped int // drains that ended on a refusal with entries left behind
	for seed := uint64(1); seed <= 8; seed++ {
		s := &System{llcRetry: make([]mem.Ring[mem.Request], 1)}
		da, db := &delayLower{}, &delayLower{}
		la, lb := cache.MustNew(cfg, da), cache.MustNew(cfg, db)
		var ref mem.Ring[mem.Request]
		rng := mem.NewPRNG(seed)
		for cy := uint64(0); cy < 2000; cy++ {
			da.deliver(la, cy)
			db.deliver(lb, cy)
			// Bursts of deliveries in one 64-cycle block of every four.
			for k := rng.Intn(3); k > 0 && (cy/64)%4 == 0; k-- {
				req := llcArrival(rng, cy)
				if !la.Issue(&req) {
					s.llcRetry[0].Push(req)
				}
				if !lb.Issue(&req) {
					ref.Push(req)
				}
			}
			before := s.llcRetry[0].Len()
			s.drainLLCRetry(0, la)
			rotateLLCRetry(&ref, lb)
			if n := s.llcRetry[0].Len(); n > 0 && n < before {
				stopped++
			}
			if got, want := ringContents(&s.llcRetry[0]), ringContents(&ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cycle %d: retry ring order diverges\ngot  %v\nwant %v", seed, cy, got, want)
			}
			la.Tick(cy)
			lb.Tick(cy)
			if !bytes.Equal(cacheImage(t, la), cacheImage(t, lb)) {
				t.Fatalf("seed %d cycle %d: slice state diverges (stats %+v vs %+v)",
					seed, cy, *la.Stats(), *lb.Stats())
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no drain stopped at a refusal with entries left: the slice never saturated")
	}
}

// rotatePortTick is the reference model: the former corePort.Tick offered
// every matured translation to the L1D and copied each kept entry.
func rotatePortTick(p *corePort, cycle uint64) {
	rest := p.pending[:0]
	for i := range p.pending {
		d := &p.pending[i]
		if d.ready <= cycle && p.s.l1d[p.core].Issue(&d.req) {
			continue
		}
		rest = append(rest, *d)
	}
	p.pending = rest
}

func TestCorePortTickMatchesRotation(t *testing.T) {
	cfg := cache.Config{Name: "l1d", Level: mem.LevelL1, Sets: 8, Ways: 2,
		Latency: 2, MSHRs: 2, Ports: 1, InQ: 2, Policy: "lru"}
	var stopped int // ticks that left a matured entry behind a refusal
	for seed := uint64(1); seed <= 8; seed++ {
		da, db := &delayLower{}, &delayLower{}
		la, lb := cache.MustNew(cfg, da), cache.MustNew(cfg, db)
		pa := &corePort{s: &System{l1d: []*cache.Cache{la}}}
		pb := &corePort{s: &System{l1d: []*cache.Cache{lb}}}
		rng := mem.NewPRNG(seed)
		rob := 0
		for cy := uint64(0); cy < 2000; cy++ {
			da.deliver(la, cy)
			db.deliver(lb, cy)
			for k := rng.Intn(3); k > 0 && len(pa.pending) < 16; k-- {
				d := delayedReq{
					req: mem.Request{Addr: mem.Addr(rng.Uint64()%128) * mem.LineBytes,
						Type: mem.Load, IssueCycle: cy, ROBIndex: rob},
					ready: cy + rng.Uint64()%12,
				}
				rob++
				if rng.Bool(0.3) {
					d.req.Type, d.req.ROBIndex = mem.Store, -1
				}
				pa.pending = append(pa.pending, d)
				pb.pending = append(pb.pending, d)
			}
			pa.Tick(cy)
			rotatePortTick(pb, cy)
			for _, d := range pa.pending {
				if d.ready <= cy {
					stopped++
					break
				}
			}
			if !reflect.DeepEqual(pa.pending, pb.pending) {
				t.Fatalf("seed %d cycle %d: port queue diverges\ngot  %v\nwant %v", seed, cy, pa.pending, pb.pending)
			}
			la.Tick(cy)
			lb.Tick(cy)
			if !bytes.Equal(cacheImage(t, la), cacheImage(t, lb)) {
				t.Fatalf("seed %d cycle %d: L1D state diverges (stats %+v vs %+v)",
					seed, cy, *la.Stats(), *lb.Stats())
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no tick left a matured entry behind a refusal: the L1D never saturated")
	}
}
