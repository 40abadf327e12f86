// Package tsue's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at a reduced scale (one bench per artifact). Run
// the full-scale versions with cmd/tsuebench.
package tsue

import (
	"io"
	"math/rand"
	"testing"

	"tsue/internal/gf256"
	"tsue/internal/harness"
	"tsue/internal/rs"
)

// benchScale keeps the whole suite tractable under `go test -bench=.`.
func benchScale() harness.Scale {
	return harness.Scale{
		Ops:       800,
		FileMB:    12,
		Clients:   []int{16},
		RSConfigs: [][2]int{{6, 4}},
	}
}

func runExp(b *testing.B, fn func(io.Writer, harness.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: SSD update throughput across engines.
func BenchmarkFig5(b *testing.B) { runExp(b, harness.Fig5) }

// BenchmarkFig6a regenerates Fig. 6a: recycle-overhead IOPS timeline.
func BenchmarkFig6a(b *testing.B) { runExp(b, harness.Fig6a) }

// BenchmarkFig6b regenerates Fig. 6b: memory usage vs log-unit quota.
func BenchmarkFig6b(b *testing.B) { runExp(b, harness.Fig6b) }

// BenchmarkFig7 regenerates Fig. 7: the O1..O5 contribution breakdown.
func BenchmarkFig7(b *testing.B) { runExp(b, harness.Fig7) }

// BenchmarkTable1 regenerates Table 1: storage workload, network traffic,
// and SSD wear per engine.
func BenchmarkTable1(b *testing.B) { runExp(b, harness.Table1) }

// BenchmarkTable2 regenerates Table 2: per-layer log residency times.
func BenchmarkTable2(b *testing.B) { runExp(b, harness.Table2) }

// BenchmarkFig8a regenerates Fig. 8a: HDD update throughput per MSR volume.
func BenchmarkFig8a(b *testing.B) { runExp(b, harness.Fig8a) }

// BenchmarkFig8b regenerates Fig. 8b: HDD recovery bandwidth per MSR volume.
func BenchmarkFig8b(b *testing.B) { runExp(b, harness.Fig8b) }

// BenchmarkSweep regenerates the batched-recycle sweep over recycler batch
// sizes.
func BenchmarkSweep(b *testing.B) { runExp(b, harness.Sweep) }

// Kernel micro-benchmarks: the word-wise gf256 slice kernels against their
// scalar references on 64 KiB buffers (the hot-loop sizes of encode and
// parity-delta folding). The word/ref ratio is the acceptance number for
// the coding hot path.

const kernelBenchSize = 64 << 10

func kernelBufs() (dst, src []byte) {
	dst = make([]byte, kernelBenchSize)
	src = make([]byte, kernelBenchSize)
	rand.New(rand.NewSource(42)).Read(src)
	return dst, src
}

// BenchmarkMulXorSlice compares the word-wise fused multiply-XOR kernel
// (dst ^= c*src, the parity-delta inner loop) against the scalar reference.
func BenchmarkMulXorSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulXorSlice(0x8e, dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulXorSliceRef(0x8e, dst, src)
		}
	})
}

// BenchmarkMulSlice compares the word-wise multiply kernel against the
// scalar reference.
func BenchmarkMulSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulSlice(0x8e, dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulSliceRef(0x8e, dst, src)
		}
	})
}

// BenchmarkXorSlice compares the word-wise XOR kernel against the scalar
// reference.
func BenchmarkXorSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.XorSlice(dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.XorSliceRef(dst, src)
		}
	})
}

// Codec benchmarks: RS(6,4) over perfbench's 1 MiB shards.

const codecShard = 1 << 20

func codecShards(n int) [][]byte {
	rng := rand.New(rand.NewSource(43))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, codecShard)
		rng.Read(out[i])
	}
	return out
}

// BenchmarkEncode measures full-stripe RS(6,4) encoding of 1 MiB shards.
func BenchmarkEncode(b *testing.B) {
	code := rs.MustNew(6, 4, rs.Vandermonde)
	data, parity := codecShards(6), codecShards(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(6 * codecShard)
	for i := 0; i < b.N; i++ {
		if err := code.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruct measures rebuilding 4 of an RS(6,4) stripe's 10
// shards (1 MiB each) from the 6 survivors: the codec call of a recovery
// after 4 OSD losses.
func BenchmarkReconstruct(b *testing.B) {
	code := rs.MustNew(6, 4, rs.Vandermonde)
	shards := append(codecShards(6), codecShards(4)...)
	if err := code.Encode(shards[:6], shards[6:]); err != nil {
		b.Fatal(err)
	}
	lost := []int{1, 3, 6, 8}
	b.ReportAllocs()
	b.SetBytes(int64(len(lost)) * codecShard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range lost {
			shards[idx] = nil
		}
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
