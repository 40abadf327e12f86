package update

import (
	"tsue/internal/logpool"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// parix is PARIX [Li et al., ATC'17]: speculative partial writes. The data
// OSD overwrites the data block in place *without* the read-before-write and
// forwards the new data to every parity OSD's log. Only the first overwrite
// of a location must read and ship the original value (so the parity side
// can later form the delta D_n - D_0, Equation (4)) — that first write pays
// roughly twice the network cost, the penalty the paper highlights for
// low-temporal-locality workloads. Parity logs recycle lazily.
type parix struct {
	base
	o Options

	logZone   int
	logCursor int64
	// sent tracks which ranges of each local data block already shipped
	// their original value (reset never: the parity side retains origs).
	sent map[wire.BlockID]*logpool.BlockLog
	// parity-side state: per data block, the first-known original value and
	// the latest speculative value for each updated range.
	orig   map[wire.BlockID]*logpool.BlockLog
	latest map[wire.BlockID]*logpool.BlockLog
	// parityFor maps a data block to the parity index this OSD holds for it.
	parityFor map[wire.BlockID]uint16
	readPos   int64
	mem       int64
	peak      int64
	draining  bool
}

func newParix(h Host, o Options) *parix {
	return &parix{
		base:      newBase(h),
		o:         o,
		logZone:   h.Store().Device().NewZone("parix-log", true),
		sent:      make(map[wire.BlockID]*logpool.BlockLog),
		orig:      make(map[wire.BlockID]*logpool.BlockLog),
		latest:    make(map[wire.BlockID]*logpool.BlockLog),
		parityFor: make(map[wire.BlockID]uint16),
	}
}

// Name returns "parix".
func (*parix) Name() string { return "parix" }

// Update overwrites the data block speculatively (no read-before-write)
// and ships the new data — plus, on first overwrite, the original — to
// every parity OSD's log.
func (e *parix) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	e.lockBlock(p, blk)
	sent, ok := e.sent[blk]
	if !ok {
		sent = &logpool.BlockLog{}
		e.sent[blk] = sent
	}
	end := off + int64(len(data))
	var orig []byte
	if gaps := sent.Gaps(off, end); len(gaps) > 0 {
		// First overwrite of (part of) this range: read the original value
		// before clobbering it, to ship alongside the new data.
		var err error
		orig, err = e.h.Store().ReadRange(p, blk, off, int64(len(data)))
		if err != nil {
			e.unlockBlock(blk)
			return err
		}
		sent.Insert(off, make([]byte, len(data)), logpool.Overwrite)
	}
	// Speculative in-place overwrite — no read on the hot path.
	if err := e.h.Store().WriteRange(p, blk, off, data); err != nil {
		e.unlockBlock(blk)
		return err
	}
	// The lock is held through the log appends: the parity-side "latest"
	// record is order-sensitive, so per-block update order must match the
	// in-place write order.
	defer e.unlockBlock(blk)
	s := blk.StripeID()
	osds := e.h.Placement(s)
	k, m := e.h.Code().K, e.h.Code().M
	// First overwrite of a location costs an extra full round shipping the
	// original value — PARIX's 2x network latency for requests without
	// temporal locality (paper Fig. 1, §2.2). It runs before the
	// speculative round so the parity log never holds new data whose
	// baseline is still in flight.
	if orig != nil {
		if err := e.fanout(p, m, func(hp *sim.Proc, j int) error {
			req := &wire.ParixAppend{Blk: blk, ParityIdx: uint16(j), Off: off, New: nil, Orig: orig, Sum: wire.ChecksumPair(nil, orig)}
			return e.callAck(hp, osds[k+j], req)
		}); err != nil {
			return err
		}
	}
	// Speculative phase: ship only the new data.
	return e.fanout(p, m, func(hp *sim.Proc, j int) error {
		req := &wire.ParixAppend{Blk: blk, ParityIdx: uint16(j), Off: off, New: data, Sum: wire.ChecksumPair(data, nil)}
		return e.callAck(hp, osds[k+j], req)
	})
}

// Handle appends incoming speculative records (new data and first-write
// originals) to the local parity-side log.
func (e *parix) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	pa, ok := m.(*wire.ParixAppend)
	if !ok {
		return nil, false
	}
	// Sequential append of the record to the local parity log.
	n := int64(len(pa.New)+len(pa.Orig)) + 32
	fin := e.logSpan(p, "log:append:parix")
	e.h.Store().Device().Write(p, e.logZone, e.logCursor%(2*e.o.RecycleThreshold), n, false)
	fin()
	e.logCursor += n

	lat, ok := e.latest[pa.Blk]
	if !ok {
		lat = &logpool.BlockLog{}
		e.latest[pa.Blk] = lat
		e.parityFor[pa.Blk] = pa.ParityIdx
	}
	lat.Insert(pa.Off, pa.New, logpool.Overwrite)
	if len(pa.Orig) > 0 {
		og, ok := e.orig[pa.Blk]
		if !ok {
			og = &logpool.BlockLog{}
			e.orig[pa.Blk] = og
		}
		// First value wins: fill only the uncovered gaps.
		end := pa.Off + int64(len(pa.Orig))
		for _, g := range og.Gaps(pa.Off, end) {
			og.Insert(g[0], pa.Orig[g[0]-pa.Off:g[1]-pa.Off], logpool.Overwrite)
		}
	}
	e.mem = e.memBytes()
	if e.mem > e.peak {
		e.peak = e.mem
	}
	if e.mem >= e.o.RecycleThreshold && !e.draining {
		e.recycleAll(p)
	}
	return wire.OK, true
}

func (e *parix) memBytes() int64 {
	var n int64
	for _, b := range e.latest {
		//lint:allow maporder(BlockLog.Bytes is a pure size accessor; the integer sum commutes)
		n += b.Bytes()
	}
	for _, b := range e.orig {
		//lint:allow maporder(BlockLog.Bytes is a pure size accessor; the integer sum commutes)
		n += b.Bytes()
	}
	return n
}

// recycleAll folds every speculative record into the parity block:
// delta = latest XOR orig, parity ^= coef * delta (Equation (4)). Afterwards
// the origs are advanced to the applied values so later updates delta
// against the new baseline.
func (e *parix) recycleAll(p *sim.Proc) {
	e.draining = true
	defer func() { e.draining = false }()
	// Steal the pending speculative records: the parity RMWs below block,
	// and concurrently arriving appends must accumulate in a fresh map for
	// the next recycle round instead of being dropped.
	work := e.latest
	e.latest = make(map[wire.BlockID]*logpool.BlockLog)
	blks := make([]wire.BlockID, 0, len(work))
	for b := range work {
		blks = append(blks, b)
	}
	sortBlocks(blks)
	dev := e.h.Store().Device()
	for _, blk := range blks {
		lat := work[blk]
		og := e.orig[blk]
		if og == nil {
			// Grey failure: the data OSD shipped this block's first-write
			// orig round, a fault (node flap, dropped ack) failed the
			// fan-out, and the client's retry found the range already
			// marked sent — so only New records ever arrived here. The
			// baseline is unrecoverable and the stripe is torn no matter
			// what we fold (the other parities saw different history), so
			// recycle against an empty baseline instead of crashing and
			// leave consistency to the scrub/repair pass that owns torn
			// stripes.
			og = &logpool.BlockLog{}
			e.orig[blk] = og
		}
		j := int(e.parityFor[blk])
		pblk := e.parityBlock(blk.StripeID(), j)
		for _, ext := range lat.Extents() {
			// Random read of the log area holding this record pair (records
			// for one block are scattered through the arrival-ordered log).
			e.readPos = (e.readPos + 1237*4096) % (e.logCursor + 1)
			dev.Read(p, e.logZone, e.readPos, int64(len(ext.Data))*2)
			ov := make([]byte, len(ext.Data))
			og.Overlay(ext.Off, ov)
			rs.DataDelta(ov, ext.Data, ov)
			pd := mulDelta(e.h.Code(), j, int(blk.Index), ov)
			if err := e.applyParityDelta(p, pblk, ext.Off, pd); err != nil {
				panic("parix: recycle: " + err.Error())
			}
			// Advance the baseline: orig := latest for this range.
			og.Insert(ext.Off, ext.Data, logpool.Overwrite)
		}
	}
	e.logCursor = 0
	e.mem = e.memBytes()
}

// Read serves straight from the block store (data blocks are in place).
func (e *parix) Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	return e.read(p, blk, off, size)
}

// Drain folds every pending speculative record into its parity block.
func (e *parix) Drain(p *sim.Proc) error {
	e.recycleAll(p)
	return nil
}

// Settle is Drain: speculative logs must fold before raw stripes are
// consistent (and folding advances the orig baselines, keeping them valid
// against the settled parity).
func (e *parix) Settle(p *sim.Proc, _ wire.NodeID) error { return e.Drain(p) }

// NeedsSettle reports whether unfolded speculative records remain.
func (e *parix) NeedsSettle(wire.NodeID) bool { return e.Dirty() }

// Dirty reports whether unfolded speculative records remain.
func (e *parix) Dirty() bool { return len(e.latest) > 0 }

// MemBytes returns the in-memory speculative-log footprint.
func (e *parix) MemBytes() int64 { return e.mem }

// PeakMemBytes returns the high-water speculative-log footprint.
func (e *parix) PeakMemBytes() int64 { return e.peak }

// ResetStripe forgets the data-side "original already shipped" coverage for
// every block of s. Recovery calls it on the stripe's data holders after a
// parity block is rebuilt on a fresh OSD: the new holder has no orig
// baselines, so the next update of each range must reship the original
// value (which existing holders ignore — their first-value-wins gap fill
// keeps the older baseline). Parity-side state is intentionally kept: live
// holders' baselines remain valid against their settled parity blocks.
func (e *parix) ResetStripe(s wire.StripeID) {
	for blk := range e.sent {
		//lint:allow maporder(BlockID.StripeID is a pure field projection; delete-by-predicate removes the same set in any order)
		if blk.StripeID() == s {
			delete(e.sent, blk)
		}
	}
}

var _ StripeResetter = (*parix)(nil)
