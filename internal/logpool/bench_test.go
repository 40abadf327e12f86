package logpool

import (
	"math/rand"
	"testing"
)

// BenchmarkBlockLogInsert measures one Insert into a 1 MiB block's log on
// the record shapes the update engines produce:
//
//	go test ./internal/logpool -run '^$' -bench BlockLogInsert -benchmem
func BenchmarkBlockLogInsert(b *testing.B) {
	const block = 1 << 20
	const page = 4 << 10
	b.Run("seq-overlap-4K-overwrite", func(b *testing.B) {
		// Each 4 KiB record overlaps the previous one by half, so the
		// extent grows at its tail until it spans the block; then the
		// log starts over, as a fresh unit would.
		rec := make([]byte, page)
		var bl BlockLog
		off := int64(0)
		b.ReportAllocs()
		b.SetBytes(page)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if off+page > block {
				bl, off = BlockLog{}, 0
			}
			bl.Insert(off, rec, Overwrite)
			off += page / 2
		}
	})
	b.Run("random-4-64K-overwrite", func(b *testing.B) {
		// 32 random records per log before it starts over: a mix of new
		// extents, bridging merges and records inside one extent.
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 64<<10)
		var bl BlockLog
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%32 == 0 {
				bl = BlockLog{}
			}
			n := page * (1 + rng.Intn(16))
			off := int64(rng.Intn(block - n))
			bl.Insert(off, buf[:n], Overwrite)
		}
	})
	b.Run("contained-4K-xor", func(b *testing.B) {
		// Every record falls inside one block-sized extent.
		rng := rand.New(rand.NewSource(1))
		rec := make([]byte, page)
		var bl BlockLog
		bl.Insert(0, make([]byte, block), XOR)
		b.ReportAllocs()
		b.SetBytes(page)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl.Insert(int64(rng.Intn(block/page))*page, rec, XOR)
		}
	})
}
