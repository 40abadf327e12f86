// Package blockstore is the per-OSD block storage layer. It holds the
// actual bytes of every data and parity block hosted by an OSD (so stripe
// consistency is verifiable end to end) and charges each access against the
// OSD's simulated device: blocks live at fixed device offsets, so in-place
// range updates are random I/O while full-block writes stream.
package blockstore

import (
	"fmt"
	"sort"

	"tsue/internal/device"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Store manages the blocks of one OSD.
type Store struct {
	dev       *device.Disk
	zone      int
	blockSize int64
	blocks    map[wire.BlockID]*entry
	nextSlot  int64
}

type entry struct {
	slot int64
	data []byte
	// ver counts writes to the block (Put and WriteRange). Migration uses
	// it to detect blocks dirtied between the bulk copy and the cutover
	// fence, so only those pay a catch-up re-copy.
	ver uint64
	// sum is the CRC-32C of the whole of data, maintained on every write and
	// verified on ReadRange so at-rest rot (CorruptStored) surfaces as
	// wire.ErrChecksum instead of silently corrupt bytes. Put and Rewrite
	// seal it over the whole block; WriteRange splices it in O(write size)
	// (wire.ChecksumSplice), so it stays bit-for-bit the whole-block CRC.
	sum uint32
	// rotted is set by CorruptStored: sum no longer covers data, so a splice
	// would carry the mismatch forward. The next WriteRange rehashes the
	// whole block instead (sealing the rot in), and every full seal clears
	// it.
	rotted bool
}

// seal sets sum to the CRC-32C of the whole block.
func (e *entry) seal() {
	e.sum = wire.Checksum(e.data)
	e.rotted = false
}

// New creates a store on dev with fixed blockSize.
func New(dev *device.Disk, blockSize int64) *Store {
	if blockSize <= 0 {
		panic("blockstore: blockSize must be positive")
	}
	return &Store{
		dev:       dev,
		zone:      dev.NewZone("blocks", true),
		blockSize: blockSize,
		blocks:    make(map[wire.BlockID]*entry),
	}
}

// BlockSize returns the configured block size.
func (s *Store) BlockSize() int64 { return s.blockSize }

// Device returns the underlying disk (engines add their own log zones).
func (s *Store) Device() *device.Disk { return s.dev }

// Has reports whether blk exists.
func (s *Store) Has(blk wire.BlockID) bool {
	_, ok := s.blocks[blk]
	return ok
}

// Len returns the number of stored blocks.
func (s *Store) Len() int { return len(s.blocks) }

func (s *Store) offset(e *entry, off int64) int64 { return e.slot*s.blockSize + off }

// Put stores a full block, charging one large device write (streaming for
// fresh blocks, overwrite for replacement).
func (s *Store) Put(p *sim.Proc, blk wire.BlockID, data []byte) error {
	if int64(len(data)) != s.blockSize {
		return fmt.Errorf("blockstore: Put %v size %d != block size %d", blk, len(data), s.blockSize)
	}
	e, exists := s.blocks[blk]
	if !exists {
		e = &entry{slot: s.nextSlot, data: make([]byte, s.blockSize)}
		s.nextSlot++
		s.blocks[blk] = e
	}
	copy(e.data, data)
	e.ver++
	e.seal()
	s.dev.Write(p, s.zone, s.offset(e, 0), s.blockSize, exists)
	return nil
}

// Version returns the block's write counter (0 for absent blocks). Any
// write — full-block Put or in-place WriteRange — bumps it.
func (s *Store) Version(blk wire.BlockID) uint64 {
	e, ok := s.blocks[blk]
	if !ok {
		return 0
	}
	return e.ver
}

// ReadRange reads [off, off+size) of blk, charging a device read at the
// block's location.
func (s *Store) ReadRange(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	e, ok := s.blocks[blk]
	if !ok {
		return nil, fmt.Errorf("blockstore: ReadRange: no such block %v", blk)
	}
	if off < 0 || size < 0 || off+size > s.blockSize {
		return nil, fmt.Errorf("blockstore: ReadRange %v [%d,%d) out of range", blk, off, off+size)
	}
	if wire.Checksum(e.data) != e.sum {
		return nil, fmt.Errorf("blockstore: ReadRange %v: %w", blk, wire.ErrChecksum)
	}
	s.dev.Read(p, s.zone, s.offset(e, off), size)
	return append([]byte(nil), e.data[off:off+size]...), nil
}

// WriteRange overwrites [off, off+len(data)) of blk in place, charging a
// random overwrite at the block's location. The whole-block checksum is
// resealed in O(len(data)) by splicing the range's old and new CRCs into
// it; only a block rotted by CorruptStored since its last full seal is
// rehashed whole (which seals the rot in).
func (s *Store) WriteRange(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	e, ok := s.blocks[blk]
	if !ok {
		return fmt.Errorf("blockstore: WriteRange: no such block %v", blk)
	}
	end := off + int64(len(data))
	if off < 0 || end > s.blockSize {
		return fmt.Errorf("blockstore: WriteRange %v [%d,%d) out of range", blk, off, end)
	}
	if e.rotted {
		copy(e.data[off:], data)
		e.seal()
	} else {
		e.sum = wire.ChecksumSplice(e.sum, e.data[off:end], data, s.blockSize-end)
		copy(e.data[off:], data)
	}
	e.ver++
	s.dev.Write(p, s.zone, s.offset(e, off), int64(len(data)), true)
	return nil
}

// Peek returns the live bytes of blk without charging the device — for
// scrub verification and tests only.
func (s *Store) Peek(blk wire.BlockID) ([]byte, bool) {
	e, ok := s.blocks[blk]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// CorruptStored flips one stored byte of blk at off WITHOUT updating the
// entry checksum — at-rest bit rot for fault-injection tests. The next
// ReadRange of the block fails with wire.ErrChecksum; VerifyStored reports
// it immediately. The whole-block checksum stays the detector: a later
// WriteRange to the block rehashes it whole rather than splicing, so the
// rot is sealed in exactly as a full reseal would.
func (s *Store) CorruptStored(blk wire.BlockID, off int64) error {
	e, ok := s.blocks[blk]
	if !ok {
		return fmt.Errorf("blockstore: CorruptStored: no such block %v", blk)
	}
	if off < 0 || off >= s.blockSize {
		return fmt.Errorf("blockstore: CorruptStored %v off %d out of range", blk, off)
	}
	e.data[off] ^= 0xff
	e.rotted = true
	return nil
}

// VerifyStored re-checks blk's bytes against its stored checksum without
// charging the device (scrub path); absent blocks verify trivially.
func (s *Store) VerifyStored(blk wire.BlockID) bool {
	e, ok := s.blocks[blk]
	if !ok {
		return true
	}
	return wire.Checksum(e.data) == e.sum
}

// Rewrite restores blk's bytes AND checksum from known-good data without
// charging the device beyond a normal overwrite — the scrub-repair store
// step for a rotted block (ReadRange would refuse to touch it).
func (s *Store) Rewrite(p *sim.Proc, blk wire.BlockID, data []byte) error {
	if int64(len(data)) != s.blockSize {
		return fmt.Errorf("blockstore: Rewrite %v size %d != block size %d", blk, len(data), s.blockSize)
	}
	e, ok := s.blocks[blk]
	if !ok {
		return s.Put(p, blk, data)
	}
	copy(e.data, data)
	e.ver++
	e.seal()
	s.dev.Write(p, s.zone, s.offset(e, 0), s.blockSize, true)
	return nil
}

// Delete removes blk (used when simulating data loss on a failed OSD).
func (s *Store) Delete(blk wire.BlockID) { delete(s.blocks, blk) }

// DeleteAll removes every block (node catastrophic failure).
func (s *Store) DeleteAll() { s.blocks = make(map[wire.BlockID]*entry) }

// Blocks returns all block IDs in deterministic order.
func (s *Store) Blocks() []wire.BlockID {
	out := make([]wire.BlockID, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ino != b.Ino {
			return a.Ino < b.Ino
		}
		if a.Stripe != b.Stripe {
			return a.Stripe < b.Stripe
		}
		return a.Index < b.Index
	})
	return out
}
