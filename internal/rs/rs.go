// Package rs implements systematic Reed–Solomon erasure coding over GF(2^8)
// together with the incremental parity-update algebra used by erasure-code
// update schemes (Equations (1)–(5) of the TSUE paper, HPDC'25).
//
// A Code with parameters (K, M) turns K data blocks into M parity blocks via
// an M x K coefficient matrix over GF(2^8) (Vandermonde- or Cauchy-derived,
// Equation (1)). Any K of the K+M blocks reconstruct the rest.
//
// For updates, the incremental form is:
//
//	P'_i = P_i + coef[i][j] * (D'_j - D_j)        (Equation (2))
//
// and multiple data deltas for the same intra-block range across blocks of
// one stripe fold into a single parity delta per parity block
// (Equation (5)). ParityDelta and FoldDeltas implement these.
package rs

import (
	"fmt"
	"sort"

	"tsue/internal/gf256"
)

// MatrixKind selects how the encoding matrix is derived.
type MatrixKind int

const (
	// Vandermonde derives the coefficient matrix from an extended
	// (K+M) x K Vandermonde matrix brought to systematic form; this is the
	// classic construction and guarantees any K rows are invertible.
	Vandermonde MatrixKind = iota
	// Cauchy uses a Cauchy matrix directly as the parity coefficients; any
	// square submatrix of a Cauchy matrix is invertible.
	Cauchy
)

func (k MatrixKind) String() string {
	switch k {
	case Vandermonde:
		return "vandermonde"
	case Cauchy:
		return "cauchy"
	default:
		return fmt.Sprintf("MatrixKind(%d)", int(k))
	}
}

// Code is a systematic RS(K, M) erasure code.
type Code struct {
	K, M int
	// coef is the M x K parity coefficient matrix: parity row i is
	// sum_j coef[i][j] * data[j].
	coef *Matrix
	// full is the (K+M) x K generator: identity on top, coef below.
	full *Matrix
}

// New creates an RS(K, M) code. K must be in [1, 128] per wide-stripe limits
// discussed in the paper (ECWide caps K at 128), M in [1, 16], K+M <= 240.
func New(k, m int, kind MatrixKind) (*Code, error) {
	if k < 1 || k > 128 {
		return nil, fmt.Errorf("rs: K=%d out of range [1,128]", k)
	}
	if m < 1 || m > 16 {
		return nil, fmt.Errorf("rs: M=%d out of range [1,16]", m)
	}
	if k+m > 240 {
		return nil, fmt.Errorf("rs: K+M=%d exceeds 240", k+m)
	}
	var coef *Matrix
	switch kind {
	case Vandermonde:
		// Build (K+M) x K Vandermonde, normalize the top KxK block to the
		// identity by right-multiplying with its inverse; the bottom M rows
		// become the systematic parity coefficients.
		v := vandermonde(k+m, k)
		top := v.SubMatrix(0, k, 0, k)
		topInv, err := top.Invert()
		if err != nil {
			return nil, fmt.Errorf("rs: vandermonde top block not invertible: %w", err)
		}
		sys := v.Mul(topInv)
		coef = sys.SubMatrix(k, k+m, 0, k)
	case Cauchy:
		coef = cauchy(m, k)
	default:
		return nil, fmt.Errorf("rs: unknown matrix kind %v", kind)
	}
	full := NewMatrix(k+m, k)
	for i := 0; i < k; i++ {
		full.Set(i, i, 1)
	}
	for i := 0; i < m; i++ {
		copy(full.Row(k+i), coef.Row(i))
	}
	return &Code{K: k, M: m, coef: coef, full: full}, nil
}

// MustNew is New but panics on error; for tests and fixed configs.
func MustNew(k, m int, kind MatrixKind) *Code {
	c, err := New(k, m, kind)
	if err != nil {
		panic(err)
	}
	return c
}

// Coef returns the parity coefficient coef[i][j] applied to data block j for
// parity block i (the "partial derivative" in the paper's Equation (2)).
func (c *Code) Coef(parity, data int) byte {
	return c.coef.At(parity, data)
}

// Encode computes the M parity blocks for the given K data shards. All
// shards must have equal length. parity must contain M slices of the same
// length (they are overwritten).
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.K {
		return fmt.Errorf("rs: Encode got %d data shards, want %d", len(data), c.K)
	}
	if len(parity) != c.M {
		return fmt.Errorf("rs: Encode got %d parity shards, want %d", len(parity), c.M)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return fmt.Errorf("rs: data shard %d size %d != %d", i, len(d), size)
		}
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("rs: parity shard %d size %d != %d", i, len(p), size)
		}
	}
	for i := 0; i < c.M; i++ {
		row := c.coef.Row(i)
		out := parity[i]
		for b := range out {
			out[b] = 0
		}
		for j := 0; j < c.K; j++ {
			gf256.MulXorSlice(row[j], out, data[j])
		}
	}
	return nil
}

// ParityDelta computes the parity delta for parity block `parity` caused by
// dataDelta (= Dnew XOR Dold) on data block `data`: coef * dataDelta.
// The result is written into dst, which must be the same length as dataDelta.
func (c *Code) ParityDelta(parity, data int, dst, dataDelta []byte) {
	gf256.MulSlice(c.coef.At(parity, data), dst, dataDelta)
}

// ApplyParityDelta folds a parity delta into a parity region in place:
// parityRegion ^= parityDelta (Equation (2) tail).
func ApplyParityDelta(parityRegion, parityDelta []byte) {
	gf256.XorSlice(parityRegion, parityDelta)
}

// DataDelta computes dst = newData XOR oldData, the data delta of
// Equation (2). All three may alias (be the same slice); lengths must match.
func DataDelta(dst, newData, oldData []byte) {
	if len(dst) != len(newData) || len(dst) != len(oldData) {
		panic("rs: DataDelta length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	if &dst[0] == &oldData[0] {
		// Copying newData first would clobber oldData: fold in place.
		gf256.XorSlice(dst, newData)
		return
	}
	copy(dst, newData)
	gf256.XorSlice(dst, oldData)
}

// DeltaExtent is one data-delta extent within a stripe: Data covers
// [Off, Off+len(Data)) of data block Block (= Dnew XOR Dold for that range).
type DeltaExtent struct {
	Block int
	Off   int64
	Data  []byte
}

// Extent is one contiguous parity-delta range produced by FoldDeltas.
type Extent struct {
	Off  int64
	Data []byte
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + int64(len(e.Data)) }

// FoldDeltas folds a whole stripe's data-delta extents into per-parity
// parity-delta extents in one pass — the batched form of Equation (5):
// for every parity block i the result accumulates
// sum_j coef[i][block_j] * delta_j over all input extents, with
// overlapping and adjacent input ranges merged into single output extents.
// The returned slice has one entry per parity block, each offset-sorted and
// non-overlapping. Input extents may overlap each other arbitrarily and may
// repeat blocks; their Data is only read. Blocks must be in [0, K).
func (c *Code) FoldDeltas(extents []DeltaExtent) [][]Extent {
	out := make([][]Extent, c.M)
	if len(extents) == 0 {
		return out
	}
	for _, e := range extents {
		if e.Block < 0 || e.Block >= c.K {
			panic("rs: FoldDeltas block index out of range")
		}
	}
	// Coverage union: the merged output ranges shared by every parity block.
	type span struct{ off, end int64 }
	spans := make([]span, 0, len(extents))
	for _, e := range extents {
		if len(e.Data) > 0 {
			spans = append(spans, span{e.Off, e.Off + int64(len(e.Data))})
		}
	}
	if len(spans) == 0 {
		return out
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	merged := spans[:1]
	for _, s := range spans[1:] {
		if last := &merged[len(merged)-1]; s.off <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
		} else {
			merged = append(merged, s)
		}
	}
	// Locate each extent's coverage span once (every input extent lies
	// inside exactly one, by construction of the union); the mapping is
	// shared by all parity rows.
	spanIdx := make([]int, len(extents))
	for j, e := range extents {
		if len(e.Data) == 0 {
			spanIdx[j] = -1
			continue
		}
		spanIdx[j] = sort.Search(len(merged), func(i int) bool { return merged[i].end > e.Off })
	}
	// One fold pass per parity block, each walking every input extent once.
	for i := range out {
		row := make([]Extent, len(merged))
		for k, s := range merged {
			row[k] = Extent{Off: s.off, Data: make([]byte, s.end-s.off)}
		}
		for j, e := range extents {
			if spanIdx[j] < 0 {
				continue
			}
			dst := row[spanIdx[j]]
			gf256.MulXorSlice(c.coef.At(i, e.Block), dst.Data[e.Off-dst.Off:e.Off-dst.Off+int64(len(e.Data))], e.Data)
		}
		out[i] = row
	}
	return out
}

// Reconstruct recovers missing shards. shards has length K+M: index < K are
// data shards, >= K are parity shards. Missing shards are nil; present
// shards must all share one length. On success every nil shard is replaced
// by its reconstructed content. Returns an error if more than M shards are
// missing.
func (c *Code) Reconstruct(shards [][]byte) error {
	n := c.K + c.M
	if len(shards) != n {
		return fmt.Errorf("rs: Reconstruct got %d shards, want %d", len(shards), n)
	}
	size := -1
	present := make([]int, 0, n)
	missing := make([]int, 0, c.M)
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("rs: shard %d size %d != %d", i, len(s), size)
		}
		present = append(present, i)
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > c.M {
		return fmt.Errorf("rs: %d shards missing, can repair at most %d", len(missing), c.M)
	}
	if size < 0 {
		return fmt.Errorf("rs: all shards missing")
	}
	// Select K present shards; build the KxK system from their generator rows.
	sel := present[:c.K]
	sys := NewMatrix(c.K, c.K)
	for r, idx := range sel {
		copy(sys.Row(r), c.full.Row(idx))
	}
	inv, err := sys.Invert()
	if err != nil {
		return err
	}
	// Decode matrix rows for the original data blocks: data = inv * selected.
	// For each missing shard i, its generator row full[i] applied to the
	// decoded data gives the shard: rec_i = full[i] * inv * selected.
	recRows := make([][]byte, len(missing))
	for mi, idx := range missing {
		// row = full[idx] (1 x K) * inv (K x K) -> 1 x K over selected shards.
		row := make([]byte, c.K)
		frow := c.full.Row(idx)
		for j := 0; j < c.K; j++ {
			if f := frow[j]; f != 0 {
				gf256.MulXorSlice(f, row, inv.Row(j))
			}
		}
		recRows[mi] = row
	}
	// The O(missing * K * size) shard rebuild dominates. Only present
	// shards are read, so each rebuilt shard can be installed at once.
	for mi, idx := range missing {
		out := make([]byte, size)
		row := recRows[mi]
		for j, srcIdx := range sel {
			gf256.MulXorSlice(row[j], out, shards[srcIdx])
		}
		shards[idx] = out
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
func (c *Code) Verify(data, parity [][]byte) (bool, error) {
	if len(data) != c.K || len(parity) != c.M {
		return false, fmt.Errorf("rs: Verify got %d/%d shards, want %d/%d", len(data), len(parity), c.K, c.M)
	}
	size := len(data[0])
	check := make([][]byte, c.M)
	for i := range check {
		check[i] = make([]byte, size)
	}
	if err := c.Encode(data, check); err != nil {
		return false, err
	}
	for i := range check {
		if len(parity[i]) != size {
			return false, fmt.Errorf("rs: parity shard %d size %d != %d", i, len(parity[i]), size)
		}
		for b := range check[i] {
			if check[i][b] != parity[i][b] {
				return false, nil
			}
		}
	}
	return true, nil
}
