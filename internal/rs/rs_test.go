package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tsue/internal/gf256"
)

func randShards(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func makeParity(m, size int) [][]byte {
	out := make([][]byte, m)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

func TestNewRejectsBadParams(t *testing.T) {
	cases := []struct{ k, m int }{
		{0, 2}, {-1, 2}, {129, 2}, {4, 0}, {4, 17}, {128, 16}, // 128+16=144 ok actually
	}
	for _, c := range cases {
		_, err := New(c.k, c.m, Vandermonde)
		if c.k == 128 && c.m == 16 {
			if err != nil {
				t.Errorf("New(128,16) should succeed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("New(%d,%d) should fail", c.k, c.m)
		}
	}
}

func TestEncodeDecodeAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		for _, cfg := range []struct{ k, m int }{{2, 1}, {4, 2}, {6, 2}, {6, 3}, {6, 4}, {12, 2}, {12, 3}, {12, 4}, {16, 4}} {
			c := MustNew(cfg.k, cfg.m, kind)
			size := 1 + rng.Intn(512)
			data := randShards(rng, cfg.k, size)
			parity := makeParity(cfg.m, size)
			if err := c.Encode(data, parity); err != nil {
				t.Fatalf("%v RS(%d,%d): %v", kind, cfg.k, cfg.m, err)
			}
			ok, err := c.Verify(data, parity)
			if err != nil || !ok {
				t.Fatalf("%v RS(%d,%d): verify failed: %v", kind, cfg.k, cfg.m, err)
			}
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := MustNew(6, 3, Vandermonde)
	size := 128
	data := randShards(rng, 6, size)
	parity := makeParity(3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, 9)
	for i := 0; i < 6; i++ {
		orig[i] = data[i]
	}
	for i := 0; i < 3; i++ {
		orig[6+i] = parity[i]
	}
	// All erasure patterns of up to 3 shards.
	for a := 0; a < 9; a++ {
		for b := a; b < 9; b++ {
			for d := b; d < 9; d++ {
				shards := make([][]byte, 9)
				for i := range shards {
					shards[i] = append([]byte(nil), orig[i]...)
				}
				shards[a], shards[b], shards[d] = nil, nil, nil
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("erasures (%d,%d,%d): %v", a, b, d, err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Fatalf("erasures (%d,%d,%d): shard %d mismatch", a, b, d, i)
					}
				}
			}
		}
	}
}

func TestReconstructTooManyMissing(t *testing.T) {
	c := MustNew(4, 2, Cauchy)
	shards := make([][]byte, 6)
	for i := 3; i < 6; i++ {
		shards[i] = make([]byte, 8)
	}
	// 3 missing > M=2
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("expected error with too many missing shards")
	}
}

func TestReconstructNoneMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := MustNew(3, 2, Vandermonde)
	data := randShards(rng, 3, 16)
	parity := makeParity(2, 16)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
}

// TestDataDeltaMatchesScalarRef checks DataDelta against a byte-wise XOR
// for every aliasing its contract allows, across the vector kernel's
// 32-byte boundary.
func TestDataDeltaMatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 31, 32, 33, 4097} {
		newData, oldData := make([]byte, n), make([]byte, n)
		rng.Read(newData)
		rng.Read(oldData)
		want := make([]byte, n)
		for i := range want {
			want[i] = newData[i] ^ oldData[i]
		}
		for _, tc := range []struct {
			name string
			run  func(nd, od []byte) []byte
		}{
			{"distinct", func(nd, od []byte) []byte {
				dst := make([]byte, n)
				DataDelta(dst, nd, od)
				return dst
			}},
			{"dst=old", func(nd, od []byte) []byte { DataDelta(od, nd, od); return od }},
			{"dst=new", func(nd, od []byte) []byte { DataDelta(nd, nd, od); return nd }},
		} {
			got := tc.run(append([]byte(nil), newData...), append([]byte(nil), oldData...))
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d %s: delta differs from the scalar reference", n, tc.name)
			}
		}
		// All three the same slice: x ^ x = 0.
		same := append([]byte(nil), newData...)
		DataDelta(same, same, same)
		if !bytes.Equal(same, make([]byte, n)) {
			t.Fatalf("n=%d all-alias: want zeros", n)
		}
	}
}

// TestIncrementalEqualsReencode is the core update invariant: applying
// Equation (2) parity deltas must equal a full re-encode.
func TestIncrementalEqualsReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		c := MustNew(6, 4, kind)
		size := 256
		data := randShards(rng, 6, size)
		parity := makeParity(4, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		// Random in-place update of a sub-range of one data block.
		for trial := 0; trial < 30; trial++ {
			j := rng.Intn(6)
			off := rng.Intn(size)
			n := 1 + rng.Intn(size-off)
			newData := make([]byte, n)
			rng.Read(newData)
			old := append([]byte(nil), data[j][off:off+n]...)
			delta := make([]byte, n)
			DataDelta(delta, newData, old)
			copy(data[j][off:off+n], newData)
			for p := 0; p < 4; p++ {
				pd := make([]byte, n)
				c.ParityDelta(p, j, pd, delta)
				ApplyParityDelta(parity[p][off:off+n], pd)
			}
		}
		ok, err := c.Verify(data, parity)
		if err != nil || !ok {
			t.Fatalf("%v: incremental updates diverged from re-encode", kind)
		}
	}
}

// TestMergedDeltasEqualReencode checks Equation (5): merging deltas from
// multiple blocks at the same range into one parity delta per parity block.
func TestMergedDeltasEqualReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := MustNew(6, 3, Vandermonde)
	size := 128
	data := randShards(rng, 6, size)
	parity := makeParity(3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	// Update the same range in blocks 0, 2, 4.
	off, n := 32, 48
	blocks := []int{0, 2, 4}
	extents := make([]DeltaExtent, len(blocks))
	for i, b := range blocks {
		newData := make([]byte, n)
		rng.Read(newData)
		delta := make([]byte, n)
		DataDelta(delta, newData, data[b][off:off+n])
		copy(data[b][off:off+n], newData)
		extents[i] = DeltaExtent{Block: b, Off: int64(off), Data: delta}
	}
	for p, row := range c.FoldDeltas(extents) {
		if len(row) != 1 || row[0].Off != int64(off) || len(row[0].Data) != n {
			t.Fatalf("parity %d: same-range deltas must fold to one extent, got %+v", p, row)
		}
		ApplyParityDelta(parity[p][off:off+n], row[0].Data)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatal("merged deltas diverged from re-encode")
	}
}

// TestRepeatedUpdateLatestWins checks Equation (3)/(4): folding N deltas for
// the same location equals one delta from original to final data.
func TestRepeatedUpdateLatestWins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := MustNew(4, 2, Cauchy)
	size := 64
	data := randShards(rng, 4, size)
	parity := makeParity(2, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), data[1]...)
	// Apply 5 successive updates to block 1, accumulating deltas by XOR.
	acc := make([]byte, size)
	for u := 0; u < 5; u++ {
		newData := make([]byte, size)
		rng.Read(newData)
		d := make([]byte, size)
		DataDelta(d, newData, data[1])
		for i := range acc {
			acc[i] ^= d[i]
		}
		copy(data[1], newData)
	}
	// acc must equal final XOR original (Equation (4)).
	want := make([]byte, size)
	DataDelta(want, data[1], orig)
	if !bytes.Equal(acc, want) {
		t.Fatal("accumulated deltas != final-original delta")
	}
	for p := 0; p < 2; p++ {
		pd := make([]byte, size)
		c.ParityDelta(p, 1, pd, acc)
		ApplyParityDelta(parity[p], pd)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatal("Equation (4) parity update diverged")
	}
}

func TestPropertyEncodeReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		m := 1 + r.Intn(4)
		kind := MatrixKind(r.Intn(2))
		c := MustNew(k, m, kind)
		size := 1 + r.Intn(256)
		data := randShards(r, k, size)
		parity := makeParity(m, size)
		if err := c.Encode(data, parity); err != nil {
			return false
		}
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			shards[i] = append([]byte(nil), data[i]...)
		}
		for i := 0; i < m; i++ {
			shards[k+i] = append([]byte(nil), parity[i]...)
		}
		// Erase up to m random shards.
		ne := 1 + r.Intn(m)
		for e := 0; e < ne; e++ {
			shards[r.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				return false
			}
		}
		for i := 0; i < m; i++ {
			if !bytes.Equal(shards[k+i], parity[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		// Random invertible matrix: retry until invertible.
		var m *Matrix
		for {
			m = NewMatrix(n, n)
			rng.Read(m.Data)
			if _, err := m.Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		prod := m.Mul(inv)
		id := Identity(n)
		if !bytes.Equal(prod.Data, id.Data) {
			t.Fatalf("m * inv(m) != I for n=%d", n)
		}
	}
}

func TestSingularMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2) // duplicate row
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestEncodeSizeMismatch(t *testing.T) {
	c := MustNew(2, 1, Vandermonde)
	data := [][]byte{make([]byte, 4), make([]byte, 8)}
	parity := [][]byte{make([]byte, 4)}
	if err := c.Encode(data, parity); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCoefStability(t *testing.T) {
	// Same params must give the same coefficients (placement determinism).
	a := MustNew(6, 3, Vandermonde)
	b := MustNew(6, 3, Vandermonde)
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			if a.Coef(i, j) != b.Coef(i, j) {
				t.Fatal("coefficients not deterministic")
			}
		}
	}
}

func TestCauchyAnySquareInvertible(t *testing.T) {
	// Any square submatrix of a Cauchy matrix must be invertible; spot-check.
	m := cauchy(4, 6)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4)
		rows := rng.Perm(4)[:n]
		cols := rng.Perm(6)[:n]
		sub := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				sub.Set(r, c, m.At(rows[r], cols[c]))
			}
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("cauchy %dx%d submatrix singular", n, n)
		}
	}
}

func BenchmarkParityDelta4K(b *testing.B) {
	c := MustNew(6, 4, Vandermonde)
	delta := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(16)).Read(delta)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ParityDelta(2, 3, dst, delta)
	}
}

// TestEncodeMatchesScalarRef pins Encode to a scalar-reference accumulation
// of the coefficient matrix, across small, odd and multi-64 KiB lengths.
func TestEncodeMatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := MustNew(6, 3, Vandermonde)
	for _, size := range []int{1, 100, 4096, 65535, 131085, 327680} {
		data := randShards(rng, 6, size)
		parity := randShards(rng, 3, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		for i := range parity {
			want := make([]byte, size)
			for j := range data {
				gf256.MulXorSliceRef(c.Coef(i, j), want, data[j])
			}
			if !bytes.Equal(parity[i], want) {
				t.Fatalf("size %d: parity %d differs from the scalar reference", size, i)
			}
		}
	}
}

// TestReconstructStriped: reconstruction of large, odd-length shards must
// recover shards byte-identical to the originals.
func TestReconstructStriped(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := MustNew(5, 3, Cauchy)
	size := 3<<16 + 7
	data := randShards(rng, 5, size)
	parity := randShards(rng, 3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 8)
	for i := 0; i < 5; i++ {
		shards[i] = append([]byte(nil), data[i]...)
	}
	for i := 0; i < 3; i++ {
		shards[5+i] = append([]byte(nil), parity[i]...)
	}
	shards[1], shards[4], shards[6] = nil, nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], data[1]) || !bytes.Equal(shards[4], data[4]) {
		t.Fatal("reconstruct corrupted data shards")
	}
	if !bytes.Equal(shards[6], parity[1]) {
		t.Fatal("reconstruct corrupted parity shard")
	}
}

// TestFoldDeltasMatchesScalarRef pins FoldDeltas on large same-range deltas
// (Equation (5)) to a scalar-reference accumulation.
func TestFoldDeltasMatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := MustNew(6, 4, Vandermonde)
	const off = 4096
	size := 2<<16 + 33
	deltas := randShards(rng, 3, size)
	blocks := []int{0, 2, 5}
	extents := make([]DeltaExtent, len(blocks))
	for i, b := range blocks {
		extents[i] = DeltaExtent{Block: b, Off: off, Data: deltas[i]}
	}
	for parity, row := range c.FoldDeltas(extents) {
		want := make([]byte, size)
		for i, b := range blocks {
			gf256.MulXorSliceRef(c.Coef(parity, b), want, deltas[i])
		}
		if len(row) != 1 || row[0].Off != off || !bytes.Equal(row[0].Data, want) {
			t.Fatalf("FoldDeltas diverges from the scalar reference for parity %d", parity)
		}
	}
}

// foldRef is the naive per-extent reference for FoldDeltas: multiply each
// extent for each parity and XOR-accumulate into a flat per-parity image.
func foldRef(c *Code, extents []DeltaExtent, span int64) [][]byte {
	out := make([][]byte, c.M)
	for i := range out {
		out[i] = make([]byte, span)
		for _, e := range extents {
			tmp := make([]byte, len(e.Data))
			gf256.MulSliceRef(c.Coef(i, e.Block), tmp, e.Data)
			gf256.XorSliceRef(out[i][e.Off:e.Off+int64(len(e.Data))], tmp)
		}
	}
	return out
}

// TestFoldDeltasMatchesNaive: the one-pass batched fold must equal the
// per-extent reference, including overlapping, adjacent, repeated-block and
// empty extents.
func TestFoldDeltasMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := MustNew(4, 3, Vandermonde)
	const span = 1 << 16
	for trial := 0; trial < 30; trial++ {
		nExt := 1 + rng.Intn(12)
		extents := make([]DeltaExtent, 0, nExt)
		for e := 0; e < nExt; e++ {
			size := rng.Intn(5000)
			off := int64(rng.Intn(span - 5000))
			data := make([]byte, size)
			rng.Read(data)
			extents = append(extents, DeltaExtent{Block: rng.Intn(4), Off: off, Data: data})
		}
		want := foldRef(c, extents, span)
		got := c.FoldDeltas(extents)
		if len(got) != c.M {
			t.Fatalf("FoldDeltas returned %d parity rows, want %d", len(got), c.M)
		}
		for i := range got {
			img := make([]byte, span)
			var prevEnd int64 = -1
			for _, ext := range got[i] {
				if ext.Off < prevEnd {
					t.Fatalf("parity %d extents overlap or unsorted", i)
				}
				prevEnd = ext.End()
				copy(img[ext.Off:], ext.Data)
			}
			if !bytes.Equal(img, want[i]) {
				t.Fatalf("trial %d: FoldDeltas parity %d diverges from naive fold", trial, i)
			}
		}
	}
}

// TestFoldDeltasMergesAdjacent: two touching extents must come back as one.
func TestFoldDeltasMergesAdjacent(t *testing.T) {
	c := MustNew(4, 2, Vandermonde)
	out := c.FoldDeltas([]DeltaExtent{
		{Block: 0, Off: 0, Data: []byte{1, 2, 3, 4}},
		{Block: 1, Off: 4, Data: []byte{5, 6}},
		{Block: 2, Off: 100, Data: []byte{7}},
	})
	for i, row := range out {
		if len(row) != 2 {
			t.Fatalf("parity %d: got %d extents, want 2 (adjacent ranges must merge)", i, len(row))
		}
		if row[0].Off != 0 || len(row[0].Data) != 6 || row[1].Off != 100 || len(row[1].Data) != 1 {
			t.Fatalf("parity %d: wrong extent geometry %+v", i, row)
		}
	}
}

// TestFoldDeltasEdgeCases: empty input, zero-length extents, out-of-range
// block panic.
func TestFoldDeltasEdgeCases(t *testing.T) {
	c := MustNew(3, 2, Cauchy)
	if out := c.FoldDeltas(nil); len(out) != 2 || out[0] != nil {
		t.Fatal("empty fold must return M empty rows")
	}
	out := c.FoldDeltas([]DeltaExtent{{Block: 0, Off: 9, Data: nil}})
	for _, row := range out {
		if len(row) != 0 {
			t.Fatal("zero-length extents must fold to nothing")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range block did not panic")
		}
	}()
	c.FoldDeltas([]DeltaExtent{{Block: 3, Off: 0, Data: []byte{1}}})
}

// TestEncodeVerifyRoundTripLarge exercises the encode/verify round trip on
// multi-64 KiB shards.
func TestEncodeVerifyRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := MustNew(8, 4, Vandermonde)
	size := 4 << 16
	data := randShards(rng, 8, size)
	parity := randShards(rng, 4, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("verify after encode: ok=%v err=%v", ok, err)
	}
	parity[2][size/2] ^= 1
	ok, err = c.Verify(data, parity)
	if err != nil || ok {
		t.Fatalf("verify missed corruption: ok=%v err=%v", ok, err)
	}
}
