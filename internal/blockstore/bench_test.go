package blockstore

import (
	"fmt"
	"math/rand"
	"testing"

	"tsue/internal/device"
	"tsue/internal/sim"
)

// benchRange is the size of one ranged op in the layer benchmarks: the
// 4 KiB-class read-modify-write the update engines issue.
const benchRange = 4096

// benchStore runs op b.N times against one preloaded block of blockSize
// bytes, at pseudo-random 4 KiB-aligned offsets, inside one simulated
// process. The device charge (and the kernel step it costs) is part of
// the measured layer.
func benchStore(b *testing.B, blockSize int64, op func(p *sim.Proc, s *Store, off int64, buf []byte) error) {
	e := sim.NewEnv()
	defer e.Close()
	d := device.New(e, "d", device.SSD, device.SSDParams())
	s := New(d, blockSize)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, blockSize)
	rng.Read(data)
	buf := make([]byte, benchRange)
	rng.Read(buf)
	slots := blockSize / benchRange
	offs := make([]int64, 1024)
	for i := range offs {
		offs[i] = rng.Int63n(slots) * benchRange
	}
	e.Go("bench", func(p *sim.Proc) {
		if err := s.Put(p, blk, data); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.SetBytes(benchRange)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(p, s, offs[i%len(offs)], buf); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
	e.Run(0)
}

var benchBlockSizes = []int64{256 << 10, 1 << 20}

func BenchmarkReadRange(b *testing.B) {
	for _, bs := range benchBlockSizes {
		b.Run(fmt.Sprintf("4K-of-%dK", bs>>10), func(b *testing.B) {
			benchStore(b, bs, func(p *sim.Proc, s *Store, off int64, _ []byte) error {
				_, err := s.ReadRange(p, blk, off, benchRange)
				return err
			})
		})
	}
}

func BenchmarkWriteRange(b *testing.B) {
	for _, bs := range benchBlockSizes {
		b.Run(fmt.Sprintf("4K-of-%dK", bs>>10), func(b *testing.B) {
			benchStore(b, bs, func(p *sim.Proc, s *Store, off int64, buf []byte) error {
				return s.WriteRange(p, blk, off, buf)
			})
		})
	}
}
