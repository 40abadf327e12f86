// Package logpool implements TSUE's log pool structure (paper §3.2): a FIFO
// queue of fixed-size log units with states EMPTY → RECYCLABLE → RECYCLING →
// RECYCLED, each unit carrying a two-level index (block hash → offset-sorted
// extent list with a page bitmap) that merges repeated and adjacent update
// records. The same structure backs all three log layers; the merge mode
// distinguishes raw-data logs (latest write wins) from delta logs (XOR
// accumulation, Equations (3) and (5)).
//
// The package is a pure data structure: the update engine supplies timing,
// concurrency control, and recycle scheduling around it.
package logpool

import (
	"fmt"
	"sort"

	"tsue/internal/gf256"
)

// MergeMode selects how an overlapping insert combines with indexed data.
type MergeMode int

const (
	// Overwrite: the newest data replaces older bytes (DataLog semantics,
	// Equation (4): only the latest update of a location matters).
	Overwrite MergeMode = iota
	// XOR: overlapping bytes accumulate by XOR (DeltaLog and ParityLog
	// semantics, Equation (3): deltas for one location fold into one).
	XOR
)

// Extent is one merged record of a block log: Data covers
// [Off, Off+len(Data)).
type Extent struct {
	Off  int64
	Data []byte
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + int64(len(e.Data)) }

// bitmapPage is the granularity of the per-block presence bitmap used to
// short-circuit read-cache lookups (paper §3.3.1).
const bitmapPage = 4096

// BlockLog is the second index level: the merged extents of one block,
// sorted by offset, pairwise non-overlapping and non-adjacent.
//
// With Raw set (the ablation baseline without locality exploitation, paper
// Fig. 7), records are kept as an append-ordered list with no merging; the
// recycler then processes every record individually.
type BlockLog struct {
	extents []Extent
	bitmap  []uint64
	Raw     bool
	// RawAppends counts pre-merge inserts; with len(extents) it quantifies
	// how much locality merging saved.
	RawAppends int
	RawBytes   int64
}

func (b *BlockLog) setBitmap(off, end int64) {
	first := off / bitmapPage
	last := (end - 1) / bitmapPage
	for pg := first; pg <= last; pg++ {
		w := int(pg / 64)
		for w >= len(b.bitmap) {
			b.bitmap = append(b.bitmap, 0)
		}
		b.bitmap[w] |= 1 << (pg % 64)
	}
}

// mightContain is a constant-time pre-check: false means no extent touches
// the page range.
func (b *BlockLog) mightContain(off, end int64) bool {
	if end <= off {
		return false
	}
	first := off / bitmapPage
	last := (end - 1) / bitmapPage
	for pg := first; pg <= last; pg++ {
		w := int(pg / 64)
		if w < len(b.bitmap) && b.bitmap[w]&(1<<(pg%64)) != 0 {
			return true
		}
	}
	return false
}

// Insert merges [off, off+len(data)) into the log under the given mode.
func (b *BlockLog) Insert(off int64, data []byte, mode MergeMode) {
	if len(data) == 0 {
		return
	}
	b.RawAppends++
	b.RawBytes += int64(len(data))
	end := off + int64(len(data))
	b.setBitmap(off, end)

	if b.Raw {
		b.extents = append(b.extents, Extent{Off: off, Data: append([]byte(nil), data...)})
		return
	}

	// Locate the window of extents overlapping or exactly adjacent to the
	// new range: all i with extents[i].End() >= off && extents[i].Off <= end.
	lo := sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() >= off })
	hi := lo
	for hi < len(b.extents) && b.extents[hi].Off <= end {
		hi++
	}
	if lo == hi {
		// No overlap: plain insert of a copy. The log must own its bytes:
		// netsim hands message payloads over by pointer, and later
		// records may merge into this buffer in place.
		b.extents = append(b.extents, Extent{})
		copy(b.extents[lo+1:], b.extents[lo:])
		b.extents[lo] = Extent{Off: off, Data: append([]byte(nil), data...)}
		return
	}
	if e := b.extents[lo]; hi == lo+1 && e.Off <= off && end <= e.End() {
		// The record falls inside one extent: merge into its buffer in
		// place, at a cost proportional to the record, not the extent.
		merge(e.Data[off-e.Off:end-e.Off], data, mode)
		return
	}
	mergedOff := off
	if b.extents[lo].Off < mergedOff {
		mergedOff = b.extents[lo].Off
	}
	mergedEnd := end
	if e := b.extents[hi-1].End(); e > mergedEnd {
		mergedEnd = e
	}
	buf := make([]byte, mergedEnd-mergedOff)
	for i := lo; i < hi; i++ {
		copy(buf[b.extents[i].Off-mergedOff:], b.extents[i].Data)
	}
	merge(buf[off-mergedOff:end-mergedOff], data, mode)
	b.extents[lo] = Extent{Off: mergedOff, Data: buf}
	b.extents = append(b.extents[:lo+1], b.extents[hi:]...)
}

// merge combines data into dst (same length) under mode.
func merge(dst, data []byte, mode MergeMode) {
	switch mode {
	case Overwrite:
		copy(dst, data)
	case XOR:
		gf256.XorSlice(dst, data)
	default:
		panic(fmt.Sprintf("logpool: unknown merge mode %d", mode))
	}
}

// Extents returns the merged extents in offset order. The returned slice
// and its buffers are owned by the log: callers must not mutate them, and a
// later Insert into the same log may rewrite them (a record that falls
// inside one extent merges into its buffer in place). Sealed units never
// receive inserts, which is why the recyclers and MergeUnits may alias the
// extents of sealed units without copying them.
func (b *BlockLog) Extents() []Extent { return b.extents }

// Bytes returns the total indexed (post-merge) byte count.
func (b *BlockLog) Bytes() int64 {
	var n int64
	for _, e := range b.extents {
		n += int64(len(e.Data))
	}
	return n
}

// Overlay copies every indexed byte intersecting [off, off+len(dst)) onto
// dst (dst[i] corresponds to block offset off+i). In Raw mode records are
// applied in append order so the newest data wins.
func (b *BlockLog) Overlay(off int64, dst []byte) {
	end := off + int64(len(dst))
	if !b.mightContain(off, end) {
		return
	}
	lo := 0
	if !b.Raw {
		lo = sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() > off })
	}
	for i := lo; i < len(b.extents); i++ {
		e := b.extents[i]
		if !b.Raw && e.Off >= end {
			break
		}
		s, t := e.Off, e.End()
		if s < off {
			s = off
		}
		if t > end {
			t = end
		}
		if s >= t {
			continue
		}
		copy(dst[s-off:t-off], e.Data[s-e.Off:t-e.Off])
	}
}

// Gaps returns the maximal sub-intervals of [off, end) NOT covered by any
// extent, in order. Used for insert-if-absent semantics (PARIX original-data
// records: the first value for a location wins).
func (b *BlockLog) Gaps(off, end int64) [][2]int64 {
	iv := b.covers(off, end, nil)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var gaps [][2]int64
	cur := off
	for _, r := range iv {
		if r[0] > cur {
			gaps = append(gaps, [2]int64{cur, r[0]})
		}
		if r[1] > cur {
			cur = r[1]
		}
	}
	if cur < end {
		gaps = append(gaps, [2]int64{cur, end})
	}
	return gaps
}

// covers appends the sub-intervals of [off, end) present in the log to out.
func (b *BlockLog) covers(off, end int64, out [][2]int64) [][2]int64 {
	if !b.mightContain(off, end) {
		return out
	}
	lo := 0
	if !b.Raw {
		lo = sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() > off })
	}
	for i := lo; i < len(b.extents); i++ {
		if !b.Raw && b.extents[i].Off >= end {
			break
		}
		s, t := b.extents[i].Off, b.extents[i].End()
		if s < off {
			s = off
		}
		if t > end {
			t = end
		}
		if s < t {
			out = append(out, [2]int64{s, t})
		}
	}
	return out
}
