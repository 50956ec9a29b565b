package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator layers the traced run attributes CPU time to,
// in the order the benchmark reports them.
var layers = []string{"cpu", "cache", "prefetch", "clip", "noc", "dram", "sim", "trace", "snapshot", "engine"}

// Buckets besides the layers. Every profile sample lands in exactly one of
// layers, gcBucket or otherBucket.
const (
	gcBucket    = "runtime.gc"
	otherBucket = "other"
)

// layerOf maps each package under clip/internal that does simulator work
// to its layer. Packages absent here (mem, table and stats are shared
// containers and counters) are transparent: a sample inside them belongs
// to the nearest enclosing frame that has a layer.
var layerOf = map[string]string{
	"clip/internal/cpu":         "cpu",
	"clip/internal/tlb":         "cpu",
	"clip/internal/cache":       "cache",
	"clip/internal/prefetch":    "prefetch",
	"clip/internal/dspatch":     "prefetch",
	"clip/internal/hermes":      "prefetch",
	"clip/internal/throttle":    "prefetch",
	"clip/internal/core":        "clip",
	"clip/internal/criticality": "clip",
	"clip/internal/noc":         "noc",
	"clip/internal/dram":        "dram",
	"clip/internal/sim":         "sim",
	"clip/internal/energy":      "sim",
	"clip/internal/invariant":   "sim",
	"clip/internal/trace":       "trace",
	"clip/internal/snapshot":    "snapshot",
	"clip/internal/experiments": "engine",
	"clip/internal/runner":      "engine",
	"clip/internal/workload":    "engine",
}

// gcPrefixes name the runtime functions whose presence anywhere on a stack
// makes the sample garbage-collection work: background marking and
// sweeping, mark assists charged to allocating code, and write barriers.
var gcPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMark", "runtime.gcSweep", "runtime.gcWriteBarrier", "runtime.wbBufFlush",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject",
}

// pkgOf returns the import path of a symbol name as pprof prints it, such
// as "clip/internal/mem.(*Ring[go.shape.int32]).Push" -> "clip/internal/mem".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sample is one decoded CPU profile sample.
type sample struct {
	frames []string // function names, innermost first, inlined frames expanded
	phase  string   // the "phase" pprof label, if any
	ns     int64    // CPU nanoseconds
}

// attribution is a CPU profile folded onto the layer buckets, in seconds.
type attribution struct {
	Samples  int                `json:"samples"`
	TotalS   float64            `json:"total_s"`
	Self     map[string]float64 `json:"self"`      // bucket -> exclusive time
	Incl     map[string]float64 `json:"incl"`      // layer -> time with a frame of it on the stack
	PhaseSel map[string]float64 `json:"phase_sel"` // bucket -> exclusive time of samples labelled measured
}

// bucketOf returns the one bucket a stack belongs to.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return gcBucket
		}
	}
	for _, f := range frames {
		if l, ok := layerOf[pkgOf(f)]; ok {
			return l
		}
	}
	return otherBucket
}

func attribute(samples []sample) attribution {
	a := attribution{Self: map[string]float64{}, Incl: map[string]float64{}, PhaseSel: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		a.Samples++
		a.TotalS += sec
		b := bucketOf(s.frames)
		a.Self[b] += sec
		if s.phase == "measured" {
			a.PhaseSel[b] += sec
		}
		seen := map[string]bool{}
		for _, f := range s.frames {
			if l, ok := layerOf[pkgOf(f)]; ok && !seen[l] {
				seen[l] = true
				a.Incl[l] += sec
			}
		}
	}
	return a
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes
// and returns its samples valued in CPU nanoseconds.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs       []string
		valueTypes []int64 // string index of each sample value's type
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames  = map[uint64]int64{}    // function id -> name string index
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpuIdx >= len(rs.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		s := sample{ns: rs.values[cpuIdx]}
		for _, l := range rs.locs {
			for _, fid := range locFuncs[l] {
				s.frames = append(s.frames, str(funcNames[fid]))
			}
		}
		for _, kv := range rs.labels {
			if str(kv[0]) == "phase" {
				s.phase = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walk calls fn for every field of a protobuf message: v is the value of a
// varint field, b the payload of a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, which runtime/pprof writes
// packed or one element per field.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
