package cache

import (
	"fmt"
	"reflect"
	"testing"

	"clip/internal/mem"
)

// horizonLower is the lower level for the horizon property test: it answers
// every miss after a pseudo-random latency and refuses every refuseEvery-th
// call (the lower-busy path, which keeps polling). Fills land either before
// or after the cache's tick of their cycle, chosen per response, so both
// orders a simulation produces are covered. Every decision depends only on
// the sequence of calls, so two executions that make the same calls see the
// same lower level.
type horizonLower struct {
	rng         *mem.PRNG
	refuseEvery int
	calls       int
	now         uint64
	pending     []horizonFill
}

type horizonFill struct {
	resp      mem.Response
	afterTick bool
}

func (d *horizonLower) Issue(req *mem.Request) bool {
	d.calls++
	if d.refuseEvery > 0 && d.calls%d.refuseEvery == 0 {
		return false
	}
	if req.Type == mem.Writeback {
		return true
	}
	d.pending = append(d.pending, horizonFill{
		resp:      mem.Response{Req: *req, ServedBy: mem.LevelDRAM, DoneCycle: d.now + 10 + d.rng.Uint64()%90},
		afterTick: d.rng.Bool(0.5),
	})
	return true
}

// deliver fills every response due by cy on the given side of the tick.
func (d *horizonLower) deliver(c *Cache, cy uint64, afterTick bool) {
	rest := d.pending[:0]
	for _, f := range d.pending {
		if f.resp.DoneCycle <= cy && f.afterTick == afterTick {
			f.resp.DoneCycle = cy
			c.Fill(&f.resp)
		} else {
			rest = append(rest, f)
		}
	}
	d.pending = rest
}

// nextDue returns the earliest pending fill deadline (NoEvent if none).
func (d *horizonLower) nextDue() uint64 {
	next := uint64(mem.NoEvent)
	for _, f := range d.pending {
		if f.resp.DoneCycle < next {
			next = f.resp.DoneCycle
		}
	}
	return next
}

// horizonEvent is one scheduled input: a request offered to Issue (retried
// every cycle while refused, as a core or retry ring does, and abandoned
// after horizonPatience cycles) or an orphan fill of a line no MSHR tracks.
// Abandoning keeps the quiet phases quiet: the offered rate is far above
// what a few MSHRs can serve.
type horizonEvent struct {
	cycle  uint64
	req    mem.Request
	orphan bool
}

const horizonPatience = 8

// horizonSchedule draws a bursty random input stream over a small line
// space: busy phases saturate the few MSHRs and the shallow input queue,
// quiet phases leave a blocked head waiting on fills alone, which is where
// multi-cycle skip windows open.
func horizonSchedule(seed uint64, cycles uint64) []horizonEvent {
	rng := mem.NewPRNG(seed)
	var evs []horizonEvent
	tag := 1
	for cy := uint64(0); cy < cycles; cy++ {
		if (cy/200)%2 == 1 || !rng.Bool(0.3) {
			continue
		}
		addr := mem.Addr(rng.Uint64()%48) * mem.LineBytes
		ev := horizonEvent{cycle: cy}
		switch k := rng.Intn(10); {
		case k < 5:
			ev.req = mem.Request{Addr: addr, IP: uint64(k), Type: mem.Load, IssueCycle: cy, ROBIndex: tag}
			tag++
		case k < 7:
			ev.req = mem.Request{Addr: addr, IP: uint64(k), Type: mem.Store, IssueCycle: cy, ROBIndex: -1}
		case k < 8:
			ev.req = mem.Request{Addr: addr, Type: mem.Prefetch, FillLevel: mem.LevelL2, IssueCycle: cy, ROBIndex: -1}
		case k < 9:
			// An upper-level MSHR waits on this one: it blocks like a demand.
			ev.req = mem.Request{Addr: addr, Type: mem.Prefetch, Owned: true, FillLevel: mem.LevelL1,
				IssueCycle: cy, ROBIndex: -1}
		default:
			ev.orphan = true
			ev.req = mem.Request{Addr: addr, Type: mem.Prefetch, FillLevel: mem.LevelL2, IssueCycle: cy, ROBIndex: -1}
		}
		evs = append(evs, ev)
	}
	return evs
}

// horizonObs is everything externally observable about one execution.
type horizonObs struct {
	Stats     Stats
	Responses []string
	Accesses  []string
}

// driveHorizon runs one cache over the schedule. With skip=false the cache
// ticks every cycle; with skip=true it is driven the way the simulation loop
// drives it: Tick only when NextEvent says there is work this cycle,
// SkipTick otherwise, and one SkipTick over the whole window whenever no
// input is due before the cache's own horizon. It returns the observations
// and how many cycles were skipped with the head blocked, one at a time and
// in windows longer than one cycle.
func driveHorizon(t *testing.T, cfg Config, seed uint64, evs []horizonEvent, cycles uint64, skip bool) (horizonObs, uint64, uint64) {
	t.Helper()
	d := &horizonLower{rng: mem.NewPRNG(seed ^ 0x5eed), refuseEvery: 7}
	c := MustNew(cfg, d)
	var obs horizonObs
	c.OnResponse(func(r *mem.Response) {
		obs.Responses = append(obs.Responses, fmt.Sprintf("%+v cy%d", *r, c.cycle))
	})
	c.OnAccess(func(e *AccessEvent) {
		obs.Accesses = append(obs.Accesses, fmt.Sprintf("%+v", *e))
	})
	var offered []mem.Request // due requests not yet accepted, in order
	next := 0                 // next schedule entry
	var singleSkips, windowSkips uint64
	for cy := uint64(0); cy < cycles; cy++ {
		if skip && len(offered) == 0 {
			h := c.NextEvent(cy)
			if due := d.nextDue(); due < h {
				h = due
			}
			if next < len(evs) && evs[next].cycle < h {
				h = evs[next].cycle
			}
			if h > cycles {
				h = cycles
			}
			if h > cy+1 {
				if c.blocked {
					windowSkips += h - cy
				}
				c.SkipTick(h - 1)
				cy = h - 1
				continue
			}
		}
		d.now = cy
		d.deliver(c, cy, false)
		for ; next < len(evs) && evs[next].cycle == cy; next++ {
			if evs[next].orphan {
				resp := mem.Response{Req: evs[next].req, ServedBy: mem.LevelDRAM, DoneCycle: cy}
				c.Fill(&resp)
			} else {
				offered = append(offered, evs[next].req)
			}
		}
		for len(offered) > 0 && (c.Issue(&offered[0]) || offered[0].IssueCycle+horizonPatience <= cy) {
			offered = offered[1:]
		}
		if !skip || c.NextEvent(cy) <= cy {
			c.Tick(cy)
		} else {
			if c.blocked {
				singleSkips++
			}
			c.SkipTick(cy)
		}
		d.deliver(c, cy, true)
	}
	obs.Stats = *c.Stats()
	return obs, singleSkips, windowSkips
}

// TestHorizonSkipMatchesPerCycle is the cache's event-horizon property: a
// cache driven through NextEvent-gated SkipTick — single cycles and
// multi-cycle windows, including windows in which the input-queue head
// waits on a full MSHR file — must be indistinguishable from one ticked
// every cycle: identical Stats (MSHRFullEvents included), responses and
// training events.
func TestHorizonSkipMatchesPerCycle(t *testing.T) {
	const cycles = 6000
	var singles, windows uint64
	for _, mshrs := range []int{1, 2, 3} {
		for _, inq := range []int{1, 2, 3} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := Config{Name: "h", Level: mem.LevelL2, Sets: 4, Ways: 2,
					Latency: 1 + seed%3, MSHRs: mshrs, Ports: 1 + int(seed%2), InQ: inq, Policy: "lru"}
				evs := horizonSchedule(seed*31+uint64(mshrs*7+inq), cycles)
				ref, _, _ := driveHorizon(t, cfg, seed, evs, cycles, false)
				got, b, w := driveHorizon(t, cfg, seed, evs, cycles, true)
				singles += b
				windows += w
				if !reflect.DeepEqual(ref.Stats, got.Stats) {
					t.Fatalf("mshrs=%d inq=%d seed=%d: stats diverge\nper-cycle: %+v\nskipped:   %+v",
						mshrs, inq, seed, ref.Stats, got.Stats)
				}
				if !reflect.DeepEqual(ref.Responses, got.Responses) {
					t.Fatalf("mshrs=%d inq=%d seed=%d: response streams diverge (%d vs %d)",
						mshrs, inq, seed, len(ref.Responses), len(got.Responses))
				}
				if !reflect.DeepEqual(ref.Accesses, got.Accesses) {
					t.Fatalf("mshrs=%d inq=%d seed=%d: access events diverge (%d vs %d)",
						mshrs, inq, seed, len(ref.Accesses), len(got.Accesses))
				}
				if ref.Stats.MSHRFullEvents == 0 {
					t.Fatalf("mshrs=%d inq=%d seed=%d: stream never filled the MSHR file", mshrs, inq, seed)
				}
			}
		}
	}
	t.Logf("blocked-head cycles skipped: %d singly, %d in multi-cycle windows", singles, windows)
	if singles == 0 || windows == 0 {
		t.Fatalf("blocked-head cycles skipped: %d singly, %d in windows; the property is vacuous", singles, windows)
	}
}

// blockedCache returns a one-MSHR cache whose head (a load of line b) is
// blocked behind an outstanding miss on line a, after the real lookup that
// counted the first MSHR-full event.
func blockedCache(t *testing.T) (*Cache, *fakeDRAM, *[]mem.Response) {
	t.Helper()
	cfg := smallConfig("l2", mem.LevelL2)
	cfg.MSHRs = 1
	d := &fakeDRAM{latency: 1000}
	c := MustNew(cfg, d)
	d.sink = c
	got := collect(c)
	c.Issue(loadReq(0x1000, 1, 0))
	c.Issue(loadReq(0x2000, 1, 0))
	for cy := uint64(0); cy <= cfg.Latency+1; cy++ {
		c.Tick(cy)
	}
	if !c.blocked || c.Stats().MSHRFullEvents != 1 || d.issued != 1 {
		t.Fatalf("setup: blocked=%v MSHRFullEvents=%d lower issues=%d, want true/1/1",
			c.blocked, c.Stats().MSHRFullEvents, d.issued)
	}
	if e := c.NextEvent(c.cycle + 1); e != mem.NoEvent {
		t.Fatalf("blocked cache NextEvent = %d, want NoEvent", e)
	}
	// A ten-cycle window charges one MSHR-full event per skipped cycle.
	c.SkipTick(c.cycle + 10)
	if n := c.Stats().MSHRFullEvents; n != 11 {
		t.Fatalf("MSHRFullEvents after a 10-cycle skip = %d, want 11", n)
	}
	return c, d, got
}

// TestBlockedHeadWokenByMSHRFill: the fill that frees the MSHR clears the
// memo, and the next tick allocates the head's miss.
func TestBlockedHeadWokenByMSHRFill(t *testing.T) {
	c, d, got := blockedCache(t)
	cy := c.cycle + 1
	c.Fill(&mem.Response{Req: *loadReq(0x1000, 1, 0), ServedBy: mem.LevelDRAM, DoneCycle: cy})
	if c.blocked {
		t.Fatal("fill left the head blocked")
	}
	if e := c.NextEvent(cy); e != cy {
		t.Fatalf("NextEvent after fill = %d, want %d", e, cy)
	}
	c.Tick(cy)
	if d.issued != 2 || c.MSHRInUse() != 1 || c.InQLen() != 0 {
		t.Fatalf("after wake: lower issues=%d MSHRs=%d inQ=%d, want 2/1/0", d.issued, c.MSHRInUse(), c.InQLen())
	}
	if n := c.Stats().MSHRFullEvents; n != 11 {
		t.Fatalf("MSHRFullEvents = %d, want 11 (no event once unblocked)", n)
	}
	if len(*got) != 1 || (*got)[0].Req.Addr != 0x1000 {
		t.Fatalf("responses = %+v, want the fill of 0x1000", *got)
	}
}

// TestBlockedHeadWokenByOrphanFill: a fill that matches no MSHR but installs
// the head's own line clears the memo too; the head then hits while the
// MSHR file is still full.
func TestBlockedHeadWokenByOrphanFill(t *testing.T) {
	c, d, got := blockedCache(t)
	cy := c.cycle + 1
	c.Fill(&mem.Response{Req: mem.Request{Addr: 0x2000, Type: mem.Prefetch, FillLevel: mem.LevelL2},
		ServedBy: mem.LevelDRAM, DoneCycle: cy})
	if c.blocked || c.Stats().OrphanFills != 1 {
		t.Fatalf("orphan fill: blocked=%v OrphanFills=%d", c.blocked, c.Stats().OrphanFills)
	}
	c.Tick(cy)
	if d.issued != 1 || c.MSHRInUse() != 1 || c.InQLen() != 0 {
		t.Fatalf("after wake: lower issues=%d MSHRs=%d inQ=%d, want 1/1/0", d.issued, c.MSHRInUse(), c.InQLen())
	}
	if s := c.Stats(); s.DemandHits != 1 || s.MSHRFullEvents != 11 {
		t.Fatalf("DemandHits=%d MSHRFullEvents=%d, want 1/11", s.DemandHits, s.MSHRFullEvents)
	}
	if len(*got) != 1 || (*got)[0].Req.Addr != 0x2000 || (*got)[0].ServedBy != mem.LevelL2 {
		t.Fatalf("responses = %+v, want an L2 hit on 0x2000", *got)
	}
}
