package prefetch

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// Prefetcher checkpointing. Each engine serializes its training tables and
// aggressiveness level (throttlers mutate it); per-Train scratch slices are
// consumed within one call and carry no state. SavePrefetcher writes a kind
// byte so a snapshot taken under one -prefetcher flag cannot silently restore
// into another.

const (
	pfKindNone uint8 = iota
	pfKindStride
	pfKindStream
	pfKindBingo
	pfKindSPPPPF
	pfKindIPCP
	pfKindBerti
)

// prefetcherKind returns the kind byte of a prefetcher built by New; false
// for any other implementation.
func prefetcherKind(p Prefetcher) (uint8, bool) {
	switch p.(type) {
	case None:
		return pfKindNone, true
	case *Stride:
		return pfKindStride, true
	case *Stream:
		return pfKindStream, true
	case *Bingo:
		return pfKindBingo, true
	case *SPPPPF:
		return pfKindSPPPPF, true
	case *IPCP:
		return pfKindIPCP, true
	case *Berti:
		return pfKindBerti, true
	}
	return 0, false
}

// SavePrefetcher serializes any prefetcher built by New.
func SavePrefetcher(w *snapshot.Writer, p Prefetcher) {
	kind, ok := prefetcherKind(p)
	if !ok {
		w.Fail(fmt.Errorf("prefetch: cannot snapshot prefetcher type %T", p))
		return
	}
	w.U8(kind)
	if pf, ok := p.(interface{ Save(*snapshot.Writer) }); ok { // every kind but None
		pf.Save(w)
	}
}

// LoadPrefetcher restores a prefetcher saved by SavePrefetcher into an
// identically-configured receiver.
func LoadPrefetcher(r *snapshot.Reader, p Prefetcher) {
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	want, ok := prefetcherKind(p)
	if !ok {
		r.Fail(fmt.Errorf("prefetch: cannot restore into prefetcher type %T", p))
		return
	}
	if kind != want {
		r.Fail(fmt.Errorf("prefetch: snapshot holds prefetcher kind %d, receiver is %s: %w",
			kind, p.Name(), snapshot.ErrCorrupt))
		return
	}
	if pf, ok := p.(interface{ Load(*snapshot.Reader) }); ok { // every kind but None
		pf.Load(r)
	}
}

// Save serializes the IP-stride prefetcher.
func (s *Stride) Save(w *snapshot.Writer) {
	w.Int(s.level)
	s.table.Save(w, func(e *strideEntry) {
		w.U64(e.lastLine)
		w.I64(e.stride)
		w.I8(e.conf)
	})
}

// Load restores the IP-stride prefetcher.
func (s *Stride) Load(r *snapshot.Reader) {
	s.level = r.Int()
	s.table.Load(r, func(e *strideEntry) {
		e.lastLine = r.U64()
		e.stride = r.I64()
		e.conf = r.I8()
	})
}

// Save serializes the streamer.
func (s *Stream) Save(w *snapshot.Writer) {
	w.Int(s.level)
	for i := range s.streams {
		st := &s.streams[i]
		w.Bool(st.valid)
		w.U64(st.page)
		w.U64(st.last)
		w.I64(st.dir)
		w.I8(st.conf)
	}
	w.Int(s.next)
}

// Load restores the streamer.
func (s *Stream) Load(r *snapshot.Reader) {
	s.level = r.Int()
	for i := range s.streams {
		st := &s.streams[i]
		st.valid = r.Bool()
		st.page = r.U64()
		st.last = r.U64()
		st.dir = r.I64()
		st.conf = r.I8()
	}
	s.next = r.Int()
	if r.Err() == nil && (s.next < 0 || s.next >= len(s.streams)) {
		r.Fail(fmt.Errorf("prefetch: stream cursor %d out of range: %w", s.next, snapshot.ErrCorrupt))
	}
}

// Save serializes Bingo's region tracker and both history tables.
func (b *Bingo) Save(w *snapshot.Writer) {
	w.Int(b.level)
	b.active.Save(w, func(e *bingoRegion) {
		w.U64(e.triggerIP)
		w.U64(uint64(e.triggerAddr))
		w.U32(e.bitmap)
		w.Int(e.touches)
	})
	b.long.Save(w, func(e *uint32) { w.U32(*e) })
	b.short.Save(w, func(e *uint32) { w.U32(*e) })
}

// Load restores Bingo.
func (b *Bingo) Load(r *snapshot.Reader) {
	b.level = r.Int()
	b.active.Load(r, func(e *bingoRegion) {
		e.triggerIP = r.U64()
		e.triggerAddr = mem.Addr(r.U64())
		e.bitmap = r.U32()
		e.touches = r.Int()
	})
	b.long.Load(r, func(e *uint32) { *e = r.U32() })
	b.short.Load(r, func(e *uint32) { *e = r.U32() })
}

// Save serializes SPP-PPF: per-page signatures, the pattern table and the
// perceptron filter weights.
func (s *SPPPPF) Save(w *snapshot.Writer) {
	w.Int(s.level)
	s.pages.Save(w, func(e *sppPage) {
		w.U64(e.lastLine)
		w.U16(e.sig)
	})
	for i := range s.table {
		p := &s.table[i]
		for j := range p.deltas {
			w.I64(p.deltas[j])
		}
		w.U8s(p.counts[:])
	}
	for t := range s.filter.weights {
		w.I8s(s.filter.weights[t][:])
	}
}

// Load restores SPP-PPF.
func (s *SPPPPF) Load(r *snapshot.Reader) {
	s.level = r.Int()
	s.pages.Load(r, func(e *sppPage) {
		e.lastLine = r.U64()
		e.sig = r.U16()
	})
	for i := range s.table {
		p := &s.table[i]
		for j := range p.deltas {
			p.deltas[j] = r.I64()
		}
		r.U8s(p.counts[:])
	}
	for t := range s.filter.weights {
		r.I8s(s.filter.weights[t][:])
	}
}

// Save serializes IPCP's three engines.
func (p *IPCP) Save(w *snapshot.Writer) {
	w.Int(p.level)
	p.ip.Save(w, func(e *ipcpEntry) {
		w.U64(e.lastLine)
		w.I64(e.stride)
		w.I8(e.conf)
		w.U16(e.sig)
	})
	for i := range p.cplx {
		w.I64(p.cplx[i].delta)
		w.I8(p.cplx[i].conf)
	}
	p.region.Save(w, func(e *gsRegion) {
		w.U64(e.bitmap)
		w.Int(e.lastOff)
		w.Int(e.forward)
		w.Int(e.backward)
		w.Int(e.touched)
	})
}

// Load restores IPCP.
func (p *IPCP) Load(r *snapshot.Reader) {
	p.level = r.Int()
	p.ip.Load(r, func(e *ipcpEntry) {
		e.lastLine = r.U64()
		e.stride = r.I64()
		e.conf = r.I8()
		e.sig = r.U16()
	})
	for i := range p.cplx {
		p.cplx[i].delta = r.I64()
		p.cplx[i].conf = r.I8()
	}
	p.region.Load(r, func(e *gsRegion) {
		e.bitmap = r.U64()
		e.lastOff = r.Int()
		e.forward = r.Int()
		e.backward = r.Int()
		e.touched = r.Int()
	})
}

// Save serializes Berti: the IP->row table, the whole column slab verbatim
// (history rings, delta sets and per-row counters alias it), the fresh-row
// cursor and the latency estimate.
func (b *Berti) Save(w *snapshot.Writer) {
	w.Int(b.level)
	b.rows.Save(w, func(e *int32) { w.I32(*e) })
	w.U64s(b.slab)
	w.I32(b.nextRow)
	w.U64(b.latencyEst)
}

// Load restores Berti.
func (b *Berti) Load(r *snapshot.Reader) {
	b.level = r.Int()
	b.rows.Load(r, func(e *int32) { *e = r.I32() })
	r.U64s(b.slab)
	b.nextRow = r.I32()
	b.latencyEst = r.U64()
	if r.Err() == nil && (b.nextRow < 0 || b.nextRow > bertiTableSize) {
		r.Fail(fmt.Errorf("prefetch: berti row cursor %d out of range: %w", b.nextRow, snapshot.ErrCorrupt))
	}
}
