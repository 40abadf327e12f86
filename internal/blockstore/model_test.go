package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tsue/internal/device"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// TestChecksumModel drives random Put / WriteRange / Rewrite /
// CorruptStored / ReadRange sequences on one 64 KiB block against a shadow
// copy and a whole-block model of the at-rest checksum: every write seals
// the CRC-32C of the whole block (so a WriteRange over rot seals the rot
// in), and CorruptStored changes the bytes but not the seal. After every
// step the stored sum must equal the model's seal, and VerifyStored,
// ReadRange's ErrChecksum outcome and the bytes read must match the model.
func TestChecksumModel(t *testing.T) {
	const size = 64 << 10
	seeds, steps := 24, 400
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.NewEnv()
			defer e.Close()
			s := New(device.New(e, "d", device.SSD, device.SSDParams()), size)
			shadow := make([]byte, size)
			var seal uint32 // the whole-block model's stored checksum
			lastRot := int64(-1)
			randRange := func() (int64, int64) {
				n := int64(rng.Intn(9000))
				switch rng.Intn(8) {
				case 0:
					n = 0
				case 1:
					n = size
				}
				return rng.Int63n(size - n + 1), n
			}
			payload := func(n int64) []byte {
				b := make([]byte, n)
				rng.Read(b)
				return b
			}
			e.Go("model", func(p *sim.Proc) {
				full := payload(size)
				if err := s.Put(p, blk, full); err != nil {
					t.Error(err)
					return
				}
				copy(shadow, full)
				seal = wire.Checksum(shadow)
				for step := 0; step < steps; step++ {
					var op string
					switch r := rng.Intn(20); {
					case r < 9:
						off, n := randRange()
						op = fmt.Sprintf("WriteRange [%d,+%d)", off, n)
						data := payload(n)
						if err := s.WriteRange(p, blk, off, data); err != nil {
							t.Errorf("step %d %s: %v", step, op, err)
							return
						}
						copy(shadow[off:], data)
						seal = wire.Checksum(shadow)
					case r < 13:
						off, n := randRange()
						op = fmt.Sprintf("ReadRange [%d,+%d)", off, n)
						got, err := s.ReadRange(p, blk, off, n)
						rotten := wire.Checksum(shadow) != seal
						if rotten != errors.Is(err, wire.ErrChecksum) || (!rotten && err != nil) {
							t.Errorf("step %d %s: err=%v, model rotted=%v", step, op, err, rotten)
							return
						}
						if err == nil && !bytes.Equal(got, shadow[off:off+n]) {
							t.Errorf("step %d %s: bytes differ from shadow", step, op)
							return
						}
					case r < 16:
						off := rng.Int63n(size)
						if lastRot >= 0 && rng.Intn(3) == 0 {
							off = lastRot // a second flip of the same byte undoes the rot
						}
						lastRot = off
						op = fmt.Sprintf("CorruptStored %d", off)
						if err := s.CorruptStored(blk, off); err != nil {
							t.Errorf("step %d %s: %v", step, op, err)
							return
						}
						shadow[off] ^= 0xff
					case r < 18:
						op = "Rewrite"
						full := payload(size)
						if err := s.Rewrite(p, blk, full); err != nil {
							t.Errorf("step %d %s: %v", step, op, err)
							return
						}
						copy(shadow, full)
						seal = wire.Checksum(shadow)
					default:
						op = "Put"
						full := payload(size)
						if err := s.Put(p, blk, full); err != nil {
							t.Errorf("step %d %s: %v", step, op, err)
							return
						}
						copy(shadow, full)
						seal = wire.Checksum(shadow)
					}
					if got := s.blocks[blk].sum; got != seal {
						t.Errorf("step %d %s: stored sum %08x, whole-block model %08x", step, op, got, seal)
						return
					}
					if got, want := s.VerifyStored(blk), wire.Checksum(shadow) == seal; got != want {
						t.Errorf("step %d %s: VerifyStored=%v, model %v", step, op, got, want)
						return
					}
					if live, _ := s.Peek(blk); !bytes.Equal(live, shadow) {
						t.Errorf("step %d %s: stored bytes differ from shadow", step, op)
						return
					}
				}
			})
			e.Run(0)
		})
	}
}
