package logpool

import (
	"fmt"
	"sort"
	"time"

	"tsue/internal/wire"
)

// UnitState is the lifecycle state of a log unit (paper Fig. 3).
type UnitState int

const (
	// Empty: the unit accepts appends (at most one Empty unit — the active
	// one at the queue tail — exists per pool).
	Empty UnitState = iota
	// Recyclable: sealed full; waiting for a recycle worker.
	Recyclable
	// Recycling: claimed by a recycle worker.
	Recycling
	// Recycled: fully merged into blocks; retained as a read cache until
	// reused as the next active unit.
	Recycled
)

func (s UnitState) String() string {
	switch s {
	case Empty:
		return "EMPTY"
	case Recyclable:
		return "RECYCLABLE"
	case Recycling:
		return "RECYCLING"
	case Recycled:
		return "RECYCLED"
	default:
		return fmt.Sprintf("UnitState(%d)", int(s))
	}
}

// Unit is one fixed-size log unit.
type Unit struct {
	Seq      uint64
	State    UnitState
	Appended int64 // raw appended bytes (fills the unit)
	blocks   map[wire.BlockID]*BlockLog

	// Timestamps maintained by the engine for Table 2 residency stats.
	FirstAppend time.Duration
	SealedAt    time.Duration
	RecycledAt  time.Duration
}

func newUnit(seq uint64) *Unit {
	return &Unit{Seq: seq, blocks: make(map[wire.BlockID]*BlockLog), FirstAppend: -1}
}

// Block returns the per-block log, creating it if absent.
func (u *Unit) Block(blk wire.BlockID) *BlockLog {
	b, ok := u.blocks[blk]
	if !ok {
		b = &BlockLog{}
		u.blocks[blk] = b
	}
	return b
}

// Lookup returns the per-block log or nil.
func (u *Unit) Lookup(blk wire.BlockID) *BlockLog { return u.blocks[blk] }

// Blocks returns the block IDs present in the unit, in deterministic order.
func (u *Unit) Blocks() []wire.BlockID {
	out := make([]wire.BlockID, 0, len(u.blocks))
	for id := range u.blocks {
		out = append(out, id)
	}
	sortBlockIDs(out)
	return out
}

func sortBlockIDs(ids []wire.BlockID) {
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Ino != b.Ino {
			return a.Ino < b.Ino
		}
		if a.Stripe != b.Stripe {
			return a.Stripe < b.Stripe
		}
		return a.Index < b.Index
	})
}

// MergeUnits combines the per-block logs of several units into one view for
// a batched recycle pass: adjacent and overlapping extents merge ACROSS
// units under mode (Overwrite: newest unit wins; XOR: deltas accumulate),
// so repeated updates spanning units collapse into a single read-modify-
// write downstream. Units must be given oldest first — the order appends
// were accepted in. With raw set (the no-locality ablation) nothing merges:
// records concatenate in append order and recycle individually, as before.
//
// The returned view is read-only and aliases the units' own (immutable
// once sealed) logs wherever no merging happens: always for a single unit,
// and per record in raw mode. The non-raw multi-unit merge builds a fresh
// log: each range's first record is copied into it and later records merge
// into that copy (in place where they fit), never into a source unit, so
// the units stay intact as the read cache.
// The block ID list is in the same deterministic order as Unit.Blocks.
func MergeUnits(units []*Unit, mode MergeMode, raw bool) (map[wire.BlockID]*BlockLog, []wire.BlockID) {
	if len(units) == 1 {
		// Unbatched pass: the unit's own index IS the merged view.
		return units[0].blocks, units[0].Blocks()
	}
	merged := make(map[wire.BlockID]*BlockLog)
	var order []wire.BlockID
	for _, u := range units {
		for id, bl := range u.blocks {
			dst, ok := merged[id]
			if !ok {
				dst = &BlockLog{Raw: raw}
				merged[id] = dst
				order = append(order, id)
			}
			if raw {
				// Nothing merges in the ablation: concatenate the records
				// in unit order, aliasing the (immutable once sealed)
				// source buffers instead of copying them.
				dst.extents = append(dst.extents, bl.extents...)
				for w, bits := range bl.bitmap {
					for w >= len(dst.bitmap) {
						dst.bitmap = append(dst.bitmap, 0)
					}
					dst.bitmap[w] |= bits
				}
				continue
			}
			for _, ext := range bl.extents {
				dst.Insert(ext.Off, ext.Data, mode)
			}
		}
	}
	sortBlockIDs(order)
	return merged, order
}

// IndexedBytes returns post-merge bytes held by the unit (memory footprint).
func (u *Unit) IndexedBytes() int64 {
	var n int64
	for _, b := range u.blocks {
		n += b.Bytes()
	}
	return n
}

// wipe resets the unit for reuse as the new active unit.
func (u *Unit) wipe(seq uint64) {
	u.Seq = seq
	u.State = Empty
	u.Appended = 0
	u.blocks = make(map[wire.BlockID]*BlockLog)
	u.FirstAppend = -1
	u.SealedAt = 0
	u.RecycledAt = 0
}

// Stats aggregates pool counters.
//
//lint:allow obsregistry(pre-registry snapshot struct of the logpool API; engine residency tables consume it directly)
type Stats struct {
	Appends      int64 // raw append operations
	AppendBytes  int64
	Seals        int64 // units sealed
	Stalls       int64 // appends that found no usable active unit
	MemBytes     int64 // current indexed bytes across retained units
	PeakMemBytes int64
}

// Pool is a FIFO log pool. Units are ordered oldest→newest; the active unit
// is the tail. The pool never exceeds MaxUnits allocated units; when the
// active unit fills and no Recycled unit is available for reuse, appends
// stall (the engine blocks until a recycle completes) — this is the
// backpressure that makes very small unit quotas slow (paper Fig. 6).
type Pool struct {
	ID       int
	Mode     MergeMode
	UnitSize int64
	MaxUnits int
	// NoMerge disables the two-level index's locality merging (ablation
	// baseline in the paper's Fig. 7 breakdown).
	NoMerge bool

	units   []*Unit
	nextSeq uint64
	stats   Stats
}

// NewPool creates a pool with one empty active unit.
func NewPool(id int, mode MergeMode, unitSize int64, maxUnits int) *Pool {
	if unitSize <= 0 {
		panic("logpool: unit size must be positive")
	}
	if maxUnits < 2 {
		panic("logpool: need at least 2 units (one active, one recycling)")
	}
	p := &Pool{ID: id, Mode: mode, UnitSize: unitSize, MaxUnits: maxUnits}
	p.units = append(p.units, newUnit(p.nextSeq))
	p.nextSeq++
	return p
}

// Active returns the tail unit if it accepts appends, else nil.
func (p *Pool) Active() *Unit {
	tail := p.units[len(p.units)-1]
	if tail.State == Empty {
		return tail
	}
	return nil
}

// ensureActive rotates in a fresh active unit if the tail is sealed:
// reusing the oldest Recycled unit, or allocating while under MaxUnits.
// Returns nil when every unit is busy (stall).
func (p *Pool) ensureActive() *Unit {
	if u := p.Active(); u != nil {
		return u
	}
	// Reuse the oldest unit if fully recycled.
	if head := p.units[0]; head.State == Recycled {
		p.units = append(p.units[1:], head)
		head.wipe(p.nextSeq)
		p.nextSeq++
		return head
	}
	if len(p.units) < p.MaxUnits {
		u := newUnit(p.nextSeq)
		p.nextSeq++
		p.units = append(p.units, u)
		return u
	}
	return nil
}

// Append inserts one record at time now. It returns the unit that sealed as
// a result (to be queued for recycling), and ok=false when the pool is
// stalled (nothing was appended; retry after a unit recycles).
func (p *Pool) Append(blk wire.BlockID, off int64, data []byte, now time.Duration) (sealed *Unit, ok bool) {
	u := p.ensureActive()
	if u == nil {
		p.stats.Stalls++
		return nil, false
	}
	if u.FirstAppend < 0 {
		u.FirstAppend = now
	}
	bl := u.Block(blk)
	bl.Raw = p.NoMerge
	bl.Insert(off, data, p.Mode)
	u.Appended += int64(len(data))
	p.stats.Appends++
	p.stats.AppendBytes += int64(len(data))
	p.updateMem()
	if u.Appended >= p.UnitSize {
		u.State = Recyclable
		u.SealedAt = now
		p.stats.Seals++
		return u, true
	}
	return nil, true
}

// SealActive force-seals a non-empty active unit (drain path). Returns the
// sealed unit or nil.
func (p *Pool) SealActive(now time.Duration) *Unit {
	u := p.Active()
	if u == nil || u.Appended == 0 {
		return nil
	}
	u.State = Recyclable
	u.SealedAt = now
	p.stats.Seals++
	return u
}

// MarkRecycling transitions a claimed unit.
func (p *Pool) MarkRecycling(u *Unit) {
	if u.State != Recyclable {
		panic(fmt.Sprintf("logpool: MarkRecycling on %v unit", u.State))
	}
	u.State = Recycling
}

// MarkRecycled completes a unit's recycle at time now.
func (p *Pool) MarkRecycled(u *Unit, now time.Duration) {
	if u.State != Recycling {
		panic(fmt.Sprintf("logpool: MarkRecycled on %v unit", u.State))
	}
	u.State = Recycled
	u.RecycledAt = now
	p.updateMem()
}

// Stalled reports whether appends currently cannot proceed.
func (p *Pool) Stalled() bool {
	if p.Active() != nil {
		return false
	}
	if p.units[0].State == Recycled || len(p.units) < p.MaxUnits {
		return false
	}
	return true
}

// Units returns the pool's units oldest→newest (tests, memory accounting).
func (p *Pool) Units() []*Unit { return p.units }

// Tail returns the newest unit. Immediately after a successful Append, Tail
// is the unit the record landed in (rotation happens at the start of the
// next Append).
func (p *Pool) Tail() *Unit { return p.units[len(p.units)-1] }

// PendingSealed reports whether any sealed unit is still waiting for (or
// undergoing) recycling. Unlike Pending it ignores the active unit, so it
// distinguishes in-flight merge work from replayable front-log overlay
// state (the settle barrier of degraded-mode recovery).
func (p *Pool) PendingSealed() bool {
	for _, u := range p.units {
		if u.State == Recyclable || u.State == Recycling {
			return true
		}
	}
	return false
}

// Pending reports whether any unit holds unrecycled data.
func (p *Pool) Pending() bool {
	for _, u := range p.units {
		switch u.State {
		case Recyclable, Recycling:
			return true
		case Empty:
			if u.Appended > 0 {
				return true
			}
		}
	}
	return false
}

func (p *Pool) updateMem() {
	var m int64
	for _, u := range p.units {
		m += u.IndexedBytes()
	}
	p.stats.MemBytes = m
	if m > p.stats.PeakMemBytes {
		p.stats.PeakMemBytes = m
	}
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats { return p.stats }

// ExtractActive removes and returns blk's merged extents from the active
// (unsealed) unit, in offset order, or nil when the active unit holds
// nothing for blk. Sealed and recycling units are untouched — they are
// in-flight pipeline state the caller must drain first — and recycled
// (retained) units keep their read-cache copies, whose content is already
// applied to the block. The unit's fill level is not reduced: the space the
// records occupied in the on-disk log is consumed either way.
func (p *Pool) ExtractActive(blk wire.BlockID) []Extent {
	u := p.Active()
	if u == nil {
		return nil
	}
	b := u.Lookup(blk)
	if b == nil {
		return nil
	}
	delete(u.blocks, blk)
	p.updateMem()
	return b.Extents()
}

// Covers reports whether [off, off+size) of blk is fully present across the
// pool's retained units (read-cache hit test).
func (p *Pool) Covers(blk wire.BlockID, off, size int64) bool {
	end := off + size
	var iv [][2]int64
	for _, u := range p.units {
		if b := u.Lookup(blk); b != nil {
			iv = b.covers(off, end, iv)
		}
	}
	if len(iv) == 0 {
		return size == 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	cur := off
	for _, r := range iv {
		if r[0] > cur {
			return false
		}
		if r[1] > cur {
			cur = r[1]
		}
	}
	return cur >= end
}

// Overlay applies the pool's indexed data for blk onto dst (block offset
// off), oldest unit first so the newest data wins.
func (p *Pool) Overlay(blk wire.BlockID, off int64, dst []byte) {
	for _, u := range p.units {
		if b := u.Lookup(blk); b != nil {
			b.Overlay(off, dst)
		}
	}
}
