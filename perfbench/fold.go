package main

// A minimal decoder for the pprof profile format (gzip-compressed
// profile.proto, as runtime/pprof writes it) and the per-layer fold the
// traced run reports. Only the fields the fold needs are decoded: sample
// types, samples, locations with their (possibly inlined) lines, functions
// and the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one profile sample: its call stack, innermost frame first
// (inlined callees before their callers), and one value per sample type.
type sample struct {
	frames []string
	values []int64
}

// profile is a decoded pprof profile.
type profile struct {
	types   []string // sample type names, e.g. "cpu", "alloc_space"
	samples []sample
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (has %v)", name, p.types)
}

var errTruncated = errors.New("pprof: truncated message")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	u    uint64 // varint and fixed-width values
	b    []byte // length-delimited payload
}

// forEachField walks the top-level fields of a protobuf message.
func forEachField(msg []byte, fn func(f protoField) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.u, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			f.u, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			f.u, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	if f.wire != 2 {
		return dst, fmt.Errorf("pprof: field %d: unexpected wire type %d", f.num, f.wire)
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs     []string
		typeIdx  []uint64                // string index of each sample type
		samples  []rawSample             //
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := forEachField(data, func(f protoField) error {
		var err error
		switch f.num {
		case 1: // sample_type
			err = forEachField(f.b, func(g protoField) error {
				if g.num == 1 {
					typeIdx = append(typeIdx, g.u)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err = forEachField(f.b, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = appendVarints(s.locs, g)
				case 2:
					s.vals, err = appendVarints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = forEachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.u
				case 4: // line
					return forEachField(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.u)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err = forEachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = g.u
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}
	for _, rs := range samples {
		s := sample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("pprof: sample references unknown location %d", loc)
			}
			for _, fn := range fns {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				s.frames = append(s.frames, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// internalPrefix marks frames of the simulator's own layers.
const internalPrefix = "tsue/internal/"

// layerOf returns the internal package a frame belongs to, or "".
func layerOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Runtime frame prefixes that identify garbage collection and goroutine
// scheduling in a stack with no internal frame.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.sweepone",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.goexit0", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futex", "runtime.mstart", "runtime.runqgrab",
		"runtime.stealWork", "runtime.resetspinning", "runtime.execute",
	}
)

func anyFramePrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// Self buckets for samples with no internal frame.
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketBench = "bench"
	bucketOther = "other"
)

// selfBucket charges a sample to exactly one bucket: the innermost internal
// frame's layer; else garbage collection; else the scheduler; else the
// benchmark's own code; else other.
func selfBucket(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	switch {
	case anyFramePrefix(frames, gcFrames):
		return bucketGC
	case anyFramePrefix(frames, schedFrames):
		return bucketSched
	case anyFramePrefix(frames, []string{"main."}):
		return bucketBench
	}
	return bucketOther
}

// layerFold is one profile folded by layer: self per bucket (the buckets
// partition the samples, so they sum to total) and cumulative per internal
// layer (a sample counts once for every layer on its stack).
type layerFold struct {
	total int64
	self  map[string]int64
	cum   map[string]int64
}

func newLayerFold() layerFold {
	return layerFold{self: map[string]int64{}, cum: map[string]int64{}}
}

// add folds one sample's value in.
func (f *layerFold) add(frames []string, v int64) {
	f.total += v
	f.self[selfBucket(frames)] += v
	seen := map[string]bool{}
	for _, fr := range frames {
		if l := layerOf(fr); l != "" && !seen[l] {
			seen[l] = true
			f.cum[l] += v
		}
	}
}

// merge adds another fold into f.
func (f *layerFold) merge(o layerFold) {
	f.total += o.total
	for k, v := range o.self {
		f.self[k] += v
	}
	for k, v := range o.cum {
		f.cum[k] += v
	}
}

// check verifies that the self buckets partition the total.
func (f *layerFold) check() error {
	var sum int64
	for _, v := range f.self {
		sum += v
	}
	if sum != f.total {
		return fmt.Errorf("self times sum to %d, profile total is %d", sum, f.total)
	}
	return nil
}

// foldProfile folds one sample type of a profile by layer.
func foldProfile(p *profile, valueType string) (layerFold, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return layerFold{}, err
	}
	f := newLayerFold()
	for _, s := range p.samples {
		f.add(s.frames, s.values[vi])
	}
	return f, f.check()
}

// foldDelta folds the growth of one cumulative sample type between two
// snapshots of the same profile (the allocation profile counts from
// process start), matching samples by their stacks.
func foldDelta(before, after *profile, valueType string) (layerFold, error) {
	bi, err := before.valueIndex(valueType)
	if err != nil {
		return layerFold{}, err
	}
	ai, err := after.valueIndex(valueType)
	if err != nil {
		return layerFold{}, err
	}
	prior := map[string]int64{}
	for _, s := range before.samples {
		prior[strings.Join(s.frames, "\n")] += s.values[bi]
	}
	grown := map[string]int64{}
	stacks := map[string][]string{}
	for _, s := range after.samples {
		k := strings.Join(s.frames, "\n")
		grown[k] += s.values[ai]
		stacks[k] = s.frames
	}
	f := newLayerFold()
	for k, v := range grown {
		if d := v - prior[k]; d > 0 {
			f.add(stacks[k], d)
		}
	}
	return f, f.check()
}

// layerProfile is the traced run's host-side attribution: CPU time and
// heap allocation, each folded by layer.
type layerProfile struct {
	cpu, alloc layerFold
}

func (l *layerProfile) merge(o *layerProfile) {
	l.cpu.merge(o.cpu)
	l.alloc.merge(o.alloc)
}
