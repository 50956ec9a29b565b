package cache

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// Cache checkpointing: the line-state slab (tags/trigger/dirty/pf/valid are
// views into it) and replacement-policy slabs restore verbatim; queues and
// the MSHR file restore by content into the construction-time backing.

// Save serializes the cache.
func (c *Cache) Save(w *snapshot.Writer) {
	w.U64s(c.slab)
	c.policy.save(w)

	mem.SaveRing(w, &c.inQ, func(q *queued) {
		mem.SaveRequest(w, &q.req)
		w.U64(q.ready)
		w.Bool(q.counted)
	})
	mem.SaveRing(w, &c.wbQ, func(q *mem.Request) { mem.SaveRequest(w, q) })

	c.mshrValid.Save(w)
	c.mshrPF.Save(w)
	w.Int(len(c.mshrLine))
	for _, a := range c.mshrLine {
		w.U64(uint64(a))
	}
	w.U64s(c.mshrFirst)
	w.Int(len(c.mshrPfReq))
	for i := range c.mshrPfReq {
		mem.SaveRequest(w, &c.mshrPfReq[i])
	}
	for i := range c.mshrWait {
		w.Int(len(c.mshrWait[i]))
		for j := range c.mshrWait[i] {
			mem.SaveRequest(w, &c.mshrWait[i][j].req)
			w.U64(c.mshrWait[i][j].arrived)
		}
	}

	w.Int(len(c.respQ))
	for i := range c.respQ {
		mem.SaveResponse(w, &c.respQ[i])
	}

	w.U64(c.cycle)
	saveCacheStats(w, &c.stats)
}

// Load restores a snapshot taken from an identically-configured cache.
func (c *Cache) Load(r *snapshot.Reader) {
	c.blocked = false // a memo, not state: the next real lookup re-derives it
	r.U64s(c.slab)
	c.policy.load(r)

	mem.LoadRing(r, &c.inQ, func(q *queued) {
		mem.LoadRequest(r, &q.req)
		q.ready = r.U64()
		q.counted = r.Bool()
	})
	mem.LoadRing(r, &c.wbQ, func(q *mem.Request) { mem.LoadRequest(r, q) })

	c.mshrValid.Load(r)
	c.mshrPF.Load(r)
	if n := r.Int(); r.Err() == nil && n != len(c.mshrLine) {
		r.Fail(fmt.Errorf("cache %s: snapshot has %d MSHRs, cache has %d: %w",
			c.cfg.Name, n, len(c.mshrLine), snapshot.ErrCorrupt))
	}
	if r.Err() != nil {
		return
	}
	for i := range c.mshrLine {
		c.mshrLine[i] = mem.Addr(r.U64())
	}
	r.U64s(c.mshrFirst)
	if n := r.Int(); r.Err() == nil && n != len(c.mshrPfReq) {
		r.Fail(snapshot.ErrCorrupt)
	}
	if r.Err() != nil {
		return
	}
	for i := range c.mshrPfReq {
		mem.LoadRequest(r, &c.mshrPfReq[i])
	}
	for i := range c.mshrWait {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		if n < 0 || n > 1<<16 {
			r.Fail(fmt.Errorf("cache %s: snapshot MSHR %d has %d waiters: %w",
				c.cfg.Name, i, n, snapshot.ErrCorrupt))
			return
		}
		lst := c.mshrWait[i][:0]
		for j := 0; j < n; j++ {
			var wt waiter
			mem.LoadRequest(r, &wt.req)
			wt.arrived = r.U64()
			lst = append(lst, wt)
		}
		c.mshrWait[i] = lst
	}

	rn := r.Int()
	if r.Err() != nil {
		return
	}
	if rn < 0 || rn > 1<<20 {
		r.Fail(fmt.Errorf("cache %s: snapshot respQ %d entries: %w", c.cfg.Name, rn, snapshot.ErrCorrupt))
		return
	}
	c.respQ = c.respQ[:0]
	for i := 0; i < rn; i++ {
		var resp mem.Response
		mem.LoadResponse(r, &resp)
		c.respQ = append(c.respQ, resp)
	}

	c.cycle = r.U64()
	loadCacheStats(r, &c.stats)
}

// save serializes the replacement-policy metadata. The kind and geometry are
// construction-time (NewPolicy); the two slabs carry all mutable columns.
func (p *Policy) save(w *snapshot.Writer) {
	w.U8(uint8(p.kind))
	w.U64s(p.words)
	w.U64(p.clock)
	w.U8s(p.bytesSlab)
	w.I8s(p.mjTable[:])
	w.U8(p.probe)
}

func (p *Policy) load(r *snapshot.Reader) {
	if k := policyKind(r.U8()); r.Err() == nil && k != p.kind {
		r.Fail(fmt.Errorf("cache: snapshot policy kind %d, cache has %d: %w",
			k, p.kind, snapshot.ErrCorrupt))
	}
	if r.Err() != nil {
		return
	}
	r.U64s(p.words)
	p.clock = r.U64()
	r.U8s(p.bytesSlab)
	r.I8s(p.mjTable[:])
	p.probe = r.U8()
}

func saveCacheStats(w *snapshot.Writer, s *Stats) {
	w.U64(s.DemandAccesses)
	w.U64(s.DemandHits)
	w.U64(s.DemandMisses)
	w.U64(s.StoreAccesses)
	w.U64(s.PFIssued)
	w.U64(s.PFDropped)
	w.U64(s.PFFills)
	w.U64(s.PFUseful)
	w.U64(s.PFLate)
	w.U64(s.PFPolluting)
	w.U64(s.Writebacks)
	w.U64(s.Evictions)
	w.U64(s.MSHRFullEvents)
	w.U64(s.OrphanFills)
	w.U64(s.DemandMissLatency.Sum)
	w.U64(s.DemandMissLatency.Count)
	w.U64(s.DemandMissLatency.Max)
}

func loadCacheStats(r *snapshot.Reader, s *Stats) {
	s.DemandAccesses = r.U64()
	s.DemandHits = r.U64()
	s.DemandMisses = r.U64()
	s.StoreAccesses = r.U64()
	s.PFIssued = r.U64()
	s.PFDropped = r.U64()
	s.PFFills = r.U64()
	s.PFUseful = r.U64()
	s.PFLate = r.U64()
	s.PFPolluting = r.U64()
	s.Writebacks = r.U64()
	s.Evictions = r.U64()
	s.MSHRFullEvents = r.U64()
	s.OrphanFills = r.U64()
	s.DemandMissLatency.Sum = r.U64()
	s.DemandMissLatency.Count = r.U64()
	s.DemandMissLatency.Max = r.U64()
}
