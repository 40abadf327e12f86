package logpool

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tsue/internal/wire"
)

// The log owns every byte it indexes: Insert copies the caller's record on
// each merge path, and merging in place only ever rewrites the log's own
// buffers. These tests pin the rules the recyclers' aliasing relies on.

// cloneExtents deep-copies a block log's extents for later comparison.
func cloneExtents(ex []Extent) []Extent {
	out := make([]Extent, len(ex))
	for i, e := range ex {
		out[i] = Extent{Off: e.Off, Data: append([]byte(nil), e.Data...)}
	}
	return out
}

var bothModes = []struct {
	name string
	mode MergeMode
}{{"overwrite", Overwrite}, {"xor", XOR}}

func equalExtents(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestInsertCopiesCallerData: mutating a record after Insert returns leaves
// the log unchanged, whichever merge path (new extent, in place, general
// merge) took it.
func TestInsertCopiesCallerData(t *testing.T) {
	for _, m := range bothModes {
		mode := m.mode
		t.Run(m.name, func(t *testing.T) {
			var b BlockLog
			recs := []struct {
				off  int64
				data []byte
			}{
				{0, []byte{1, 2, 3, 4, 5, 6, 7, 8}}, // new extent
				{2, []byte{9, 9, 9}},                // inside [0,8): in place
				{6, []byte{4, 4, 4, 4}},             // crosses the end: general
			}
			for _, r := range recs {
				b.Insert(r.off, r.data, mode)
				want := cloneExtents(b.Extents())
				for i := range r.data {
					r.data[i] = 0xee
				}
				if got := b.Extents(); !equalExtents(got, want) {
					t.Fatalf("record at %d: caller mutation leaked into the log: %v, want %v", r.off, got, want)
				}
			}
		})
	}
}

// TestInsertContainedMergesInPlace: a record inside one extent rewrites that
// extent's buffer and allocates nothing.
func TestInsertContainedMergesInPlace(t *testing.T) {
	for _, m := range bothModes {
		mode := m.mode
		var b BlockLog
		b.Insert(0, make([]byte, 64<<10), mode)
		buf := &b.Extents()[0].Data[0]
		rec := bytes.Repeat([]byte{0x5a}, 4096)
		allocs := testing.AllocsPerRun(100, func() { b.Insert(8192, rec, mode) })
		if allocs != 0 {
			t.Fatalf("%s: contained insert allocated %.1f times", m.name, allocs)
		}
		if ex := b.Extents(); len(ex) != 1 || &ex[0].Data[0] != buf || len(ex[0].Data) != 64<<10 {
			t.Fatalf("%s: contained insert replaced the extent", m.name)
		}
	}
}

// TestMergeUnitsLeavesSourcesIntact: a multi-unit merge copies before it
// merges, so the source units' extents (the recycled units' read cache)
// stay byte-identical.
func TestMergeUnitsLeavesSourcesIntact(t *testing.T) {
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	for _, m := range bothModes {
		mode := m.mode
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var units []*Unit
			for seq := uint64(0); seq < 3; seq++ {
				var recs []rec
				for i := 0; i < 20; i++ {
					blk := blkA
					if i%3 == 0 {
						blk = blkB
					}
					data := make([]byte, 1+rng.Intn(200))
					rng.Read(data)
					recs = append(recs, rec{blk, int64(rng.Intn(1024)), data})
				}
				units = append(units, mkUnit(seq, mode, false, recs))
			}
			before := make([]map[wire.BlockID][]Extent, len(units))
			for i, u := range units {
				before[i] = map[wire.BlockID][]Extent{}
				for _, blk := range u.Blocks() {
					before[i][blk] = cloneExtents(u.Lookup(blk).Extents())
				}
			}
			merged, order := MergeUnits(units, mode, false)
			if len(order) != 2 {
				t.Fatalf("order %v", order)
			}
			for i, u := range units {
				for _, blk := range u.Blocks() {
					if !equalExtents(u.Lookup(blk).Extents(), before[i][blk]) {
						t.Fatalf("unit %d block %v changed by the merge", i, blk)
					}
				}
			}
			// The merged view is a function of the sources: merging again
			// from the untouched units gives the same bytes.
			again, _ := MergeUnits(units, mode, false)
			for _, blk := range order {
				if !equalExtents(merged[blk].Extents(), again[blk].Extents()) {
					t.Fatalf("block %v: repeated merge differs", blk)
				}
			}
		})
	}
}

// TestExtractActiveDetachedFromLaterAppends: the extents ExtractActive
// returned stay as they were when the same block is appended to again.
func TestExtractActiveDetachedFromLaterAppends(t *testing.T) {
	for _, m := range bothModes {
		mode := m.mode
		p := NewPool(0, mode, 1<<20, 2)
		p.Append(blkA, 0, bytes.Repeat([]byte{1}, 4096), 0)
		exts := p.ExtractActive(blkA)
		want := cloneExtents(exts)
		// Contained in, overlapping and adjacent to the extracted extent.
		p.Append(blkA, 0, bytes.Repeat([]byte{2}, 4096), 0)
		p.Append(blkA, 1024, bytes.Repeat([]byte{3}, 512), 0)
		p.Append(blkA, 4000, bytes.Repeat([]byte{4}, 200), 0)
		if !equalExtents(exts, want) {
			t.Fatalf("%s: later appends rewrote extracted extents", m.name)
		}
	}
}

// Property: many small records in a narrow span, so most inserts fall
// inside one extent and take the in-place path; the log must still match
// the byte reference in both modes.
func TestPropertyNarrowSpanMatchesReference(t *testing.T) {
	const span = 512
	for _, m := range bothModes {
		mode := m.mode
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var b BlockLog
			ref := make([]byte, span)
			written := make([]bool, span)
			for i := 0; i < 300; i++ {
				off := rng.Intn(span - 1)
				n := 1 + rng.Intn(min(16, span-off))
				data := make([]byte, n)
				rng.Read(data)
				b.Insert(int64(off), data, mode)
				for j := 0; j < n; j++ {
					if mode == XOR {
						ref[off+j] ^= data[j]
					} else {
						ref[off+j] = data[j]
					}
					written[off+j] = true
				}
			}
			ex := b.Extents()
			got := make([]byte, span)
			covered := make([]bool, span)
			for i, e := range ex {
				if len(e.Data) == 0 || (i > 0 && e.Off <= ex[i-1].End()) {
					return false
				}
				copy(got[e.Off:], e.Data)
				for j := e.Off; j < e.End(); j++ {
					covered[j] = true
				}
			}
			for j := 0; j < span; j++ {
				if covered[j] != written[j] || (written[j] && got[j] != ref[j]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
}
