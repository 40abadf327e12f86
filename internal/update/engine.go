// Package update implements the six erasure-code update schemes evaluated in
// the TSUE paper (§2.2, §5): FO (full overwrite), PL (parity logging), PLR
// (parity logging with reserved space), PARIX (speculative partial writes),
// CoRD (combined raid/delta collection), and TSUE itself (two-stage update
// with the three-layer log). All engines run against the same OSD substrate
// — block store, device model, RPC fabric — mirroring the paper's
// methodology of implementing every scheme inside one file system (ECFS).
package update

import (
	"fmt"
	"time"

	"tsue/internal/blockstore"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Host is the OSD-side environment an engine runs in.
type Host interface {
	// NodeID is this OSD's identity.
	NodeID() wire.NodeID
	// Env is the simulation environment (for background recycle processes).
	Env() *sim.Env
	// Store is this OSD's block store.
	Store() *blockstore.Store
	// Code is the cluster's RS code.
	Code() *rs.Code
	// Placement returns the K+M OSDs of a stripe; element i hosts block i.
	Placement(s wire.StripeID) []wire.NodeID
	// Peers returns all OSD node IDs in ring order (includes this node).
	Peers() []wire.NodeID
	// Alive reports whether a peer is reachable (replica target selection).
	Alive(id wire.NodeID) bool
	// Call performs an RPC to a peer OSD.
	Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error)
}

// TraceHost is optionally implemented by hosts that expose the cluster's
// trace plane; background engine work (TSUE recycle passes) starts its own
// root spans on it. Hosts without it (unit-test fakes) stay untraced.
type TraceHost interface {
	Tracer() *obs.Tracer
}

// tracerOf returns h's tracer when it has one; a nil tracer is a valid
// disabled tracer (every obs entry point no-ops on it).
func tracerOf(h Host) *obs.Tracer {
	if th, ok := h.(TraceHost); ok {
		return th.Tracer()
	}
	return nil
}

// Engine is one update scheme running on one OSD.
type Engine interface {
	// Name returns the scheme name ("fo", "pl", ...).
	Name() string
	// Update applies a client update to a data block this OSD hosts. It
	// returns once the scheme's synchronous phase is durable.
	Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error
	// Handle processes a scheme-internal peer message; handled=false means
	// the message is not for this engine.
	Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (resp wire.Msg, handled bool)
	// Read returns [off, off+size) of a block with the scheme's read-path
	// semantics (TSUE consults its log read cache).
	Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error)
	// Drain flushes all local log state to quiescence (recovery precondition
	// and scrub barrier). Cluster-wide drains repeat per-OSD drains until a
	// full round is clean, since recycling forwards work downstream.
	Drain(p *sim.Proc) error
	// Settle brings the raw block stores this engine touches back to stripe
	// consistency with the minimum merging: any log whose effects are
	// partially applied (delta/parity pipelines, lazy parity logs) must
	// merge, but pure-overlay state that recovery can replay from replicas —
	// TSUE's active DataLog units — may be kept, EXCEPT state touching the
	// failed node's stripes: reconstruction reads those stripes' raw shards
	// during the degraded window, so any retained overlay item for them
	// would race the rebuild when its unit later seals and recycles
	// (failed == 0 means no node is down and pure overlay may stay). For
	// every in-place scheme Settle is simply Drain; the gap between the two
	// is TSUE's §4.2 log-reliability advantage during recovery.
	Settle(p *sim.Proc, failed wire.NodeID) error
	// NeedsSettle reports whether Settle still has work to do under the
	// same liveness view (the cluster-wide settle barrier repeats per-OSD
	// settles until a full round is clean, like DrainAll).
	NeedsSettle(failed wire.NodeID) bool
	// Dirty reports whether the engine still holds unrecycled state.
	Dirty() bool
	// MemBytes is the engine's current log memory footprint.
	MemBytes() int64
	// PeakMemBytes is the high-water mark of MemBytes.
	PeakMemBytes() int64
}

// Options configures engines; zero values are replaced by defaults.
type Options struct {
	// UnitSize is the TSUE/CoRD log unit size (paper: 16 MiB).
	UnitSize int64
	// MaxUnits is the per-pool unit quota (paper default: 4; Fig. 6 sweeps it).
	MaxUnits int
	// Pools is the number of log pools per log structure per device
	// (paper: 4 on SSD; O4 ablates to 1).
	Pools int
	// Copies is the DataLog replication factor including the primary
	// (paper: 2 on SSD, 3 on HDD).
	Copies int
	// UseDeltaLog enables TSUE's middle log layer (O5; disabled on HDD §5.4).
	UseDeltaLog bool
	// DataLocality / ParityLocality enable two-level-index merging in the
	// DataLog / ParityLog (O1 / O2).
	DataLocality   bool
	ParityLocality bool
	// UseLogPool enables the FIFO log pool (O3). When false, each log
	// structure degrades to a single exclusive log: appends stall while a
	// recycle is in progress.
	UseLogPool bool
	// RecycleBatch is the maximum number of sealed log units one TSUE
	// per-pool recycler drains in a single pass. Units of one batch merge
	// their extents before the read-modify-write, so updates repeated
	// across units collapse before costing device or network work. 1
	// disables batching (the paper's behavior).
	RecycleBatch int
	// RecycleThreshold is the lazy-recycle trigger for PL and PARIX parity
	// logs (bytes per OSD).
	RecycleThreshold int64
	// PLRReserve is the reserved log space adjacent to each parity block.
	PLRReserve int64
	// CordBufferSize is CoRD's fixed collector buffer log size.
	CordBufferSize int64
}

// DefaultOptions returns the paper's SSD-cluster configuration.
func DefaultOptions() Options {
	return Options{
		UnitSize:         16 << 20,
		MaxUnits:         4,
		Pools:            4,
		Copies:           2,
		UseDeltaLog:      true,
		DataLocality:     true,
		ParityLocality:   true,
		UseLogPool:       true,
		RecycleBatch:     4,
		RecycleThreshold: 8 << 20,
		PLRReserve:       64 << 10,
		CordBufferSize:   4 << 20,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.UnitSize == 0 {
		o.UnitSize = d.UnitSize
	}
	if o.MaxUnits == 0 {
		o.MaxUnits = d.MaxUnits
	}
	if o.Pools == 0 {
		o.Pools = d.Pools
	}
	if o.Copies == 0 {
		o.Copies = d.Copies
	}
	if o.RecycleBatch == 0 {
		o.RecycleBatch = d.RecycleBatch
	}
	if o.RecycleBatch < 1 {
		o.RecycleBatch = 1
	}
	if o.RecycleThreshold == 0 {
		o.RecycleThreshold = d.RecycleThreshold
	}
	if o.PLRReserve == 0 {
		o.PLRReserve = d.PLRReserve
	}
	if o.CordBufferSize == 0 {
		o.CordBufferSize = d.CordBufferSize
	}
	return o
}

// New constructs the named engine on host h.
func New(name string, h Host, o Options) (Engine, error) {
	o = o.withDefaults()
	switch name {
	case "fo":
		return newFO(h), nil
	case "pl":
		return newPL(h, o), nil
	case "plr":
		return newPLR(h, o), nil
	case "parix":
		return newParix(h, o), nil
	case "cord":
		return newCord(h, o), nil
	case "tsue":
		return newTsue(h, o), nil
	default:
		return nil, fmt.Errorf("update: unknown engine %q", name)
	}
}

// Names lists the available engines in the paper's comparison order.
func Names() []string { return []string{"fo", "pl", "plr", "parix", "cord", "tsue"} }

// base carries shared plumbing.
type base struct {
	h     Host
	locks map[wire.BlockID]*sim.Resource
}

func newBase(h Host) base {
	return base{h: h, locks: make(map[wire.BlockID]*sim.Resource)}
}

// lockBlock serializes read-modify-write update paths per block (the paper's
// block-level locking, §4).
func (b *base) lockBlock(p *sim.Proc, blk wire.BlockID) {
	l, ok := b.locks[blk]
	if !ok {
		l = b.h.Env().NewResource("blklock", 1)
		b.locks[blk] = l
	}
	l.Acquire(p)
}

func (b *base) unlockBlock(blk wire.BlockID) { b.locks[blk].Release() }

// parityBlock returns the BlockID of parity j of the stripe.
func (b *base) parityBlock(s wire.StripeID, j int) wire.BlockID {
	return wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(b.h.Code().K + j)}
}

// readModifyWrite performs the in-place data-block update shared by FO, PL,
// PLR and CoRD: read the old range (random read), overwrite with the new
// data (random write), and return the data delta (Equation (2)).
func (b *base) readModifyWrite(p *sim.Proc, blk wire.BlockID, off int64, data []byte) ([]byte, error) {
	old, err := b.h.Store().ReadRange(p, blk, off, int64(len(data)))
	if err != nil {
		return nil, err
	}
	delta := make([]byte, len(data))
	rs.DataDelta(delta, data, old)
	// Zero-width codec marker: the simulator charges no CPU for the delta
	// computation, but the hop still shows in traces.
	obs.SpanOn(p, obs.StageCodec, "codec:data-delta", b.h.NodeID())()
	if err := b.h.Store().WriteRange(p, blk, off, data); err != nil {
		return nil, err
	}
	return delta, nil
}

// applyParityDelta folds a ready parity delta into the parity block in place
// (random read + random overwrite on the parity OSD). The per-block lock
// makes the read-modify-write atomic: concurrent deltas for one parity block
// commute (XOR) but must not interleave mid-RMW.
func (b *base) applyParityDelta(p *sim.Proc, blk wire.BlockID, off int64, delta []byte) error {
	b.lockBlock(p, blk)
	defer b.unlockBlock(blk)
	cur, err := b.h.Store().ReadRange(p, blk, off, int64(len(delta)))
	if err != nil {
		return err
	}
	rs.ApplyParityDelta(cur, delta)
	obs.SpanOn(p, obs.StageCodec, "codec:parity-fold", b.h.NodeID())()
	return b.h.Store().WriteRange(p, blk, off, cur)
}

// read is the default read path: straight from the block store.
func (b *base) read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	return b.h.Store().ReadRange(p, blk, off, size)
}

// callAck performs an RPC and converts a non-empty Ack.Err into an error.
func (b *base) callAck(p *sim.Proc, to wire.NodeID, req wire.Msg) error {
	resp, err := b.h.Call(p, to, req)
	if err != nil {
		return err
	}
	if a, ok := resp.(*wire.Ack); ok && a.Err != "" {
		return fmt.Errorf("%s", a.Err)
	}
	return nil
}

// fanout runs one call per target in parallel and waits for all, returning
// the first error.
func (b *base) fanout(p *sim.Proc, n int, fn func(hp *sim.Proc, i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	env := b.h.Env()
	wg := sim.NewWaitGroup(env)
	wg.Add(n)
	var firstErr error
	for i := 0; i < n; i++ {
		i := i
		fp := env.Go("fanout", func(hp *sim.Proc) {
			if err := fn(hp, i); err != nil && firstErr == nil {
				firstErr = err
			}
			wg.Done()
		})
		obs.Inherit(fp, p)
	}
	wg.Wait(p)
	return firstErr
}

// logSpan opens a journal-stage span around one engine log append so the
// device write inside is charged to the journal stage of a trace breakdown.
func (b *base) logSpan(p *sim.Proc, name string) func() {
	return obs.SpanOn(p, obs.StageJournal, name, b.h.NodeID())
}

// errAck wraps an error into an Ack response.
func errAck(err error) *wire.Ack {
	if err == nil {
		return wire.OK
	}
	return &wire.Ack{Err: err.Error()}
}

// mulDelta returns coef * delta as a fresh buffer.
func mulDelta(c *rs.Code, parity, dataIdx int, delta []byte) []byte {
	out := make([]byte, len(delta))
	c.ParityDelta(parity, dataIdx, out, delta)
	return out
}

// LayerStats aggregates residency timing for one TSUE log layer (Table 2).
//
//lint:allow obsregistry(pre-registry residency snapshot keyed per layer; Table 2 reproduction consumes it directly)
type LayerStats struct {
	AppendN     int64
	AppendTime  time.Duration
	BufferN     int64
	BufferTime  time.Duration
	RecycleN    int64 // recycled extents
	RecycleTime time.Duration
	Units       int64 // recycled units
}

// MeanAppend returns the mean per-record append latency.
func (l LayerStats) MeanAppend() time.Duration { return meanDur(l.AppendTime, l.AppendN) }

// MeanBuffer returns the mean unit residency between first append and
// recycle start.
func (l LayerStats) MeanBuffer() time.Duration { return meanDur(l.BufferTime, l.BufferN) }

// MeanRecycle returns the mean per-extent recycle processing time.
func (l LayerStats) MeanRecycle() time.Duration { return meanDur(l.RecycleTime, l.RecycleN) }

func meanDur(sum time.Duration, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ResidencyReporter is implemented by TSUE for Table 2.
type ResidencyReporter interface {
	Residency() map[string]LayerStats
}

// Replayer is implemented by engines with a dedicated entry point for
// recovery-replayed records (surrogate-journal and DataLog-replica items).
// TSUE merges replays through its normal two-stage path — DataLog append,
// replication, asynchronous recycle — while tracking them as recovery
// traffic. Engines without the hook take replays through Update.
type Replayer interface {
	ReplayInto(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error
}

// Replay routes one recovered record into eng: through its ReplayInto hook
// when implemented, otherwise through the ordinary update path (correct for
// every in-place scheme, where replaying IS updating).
func Replay(p *sim.Proc, eng Engine, blk wire.BlockID, off int64, data []byte) error {
	if r, ok := eng.(Replayer); ok {
		return r.ReplayInto(p, blk, off, data)
	}
	return eng.Update(p, blk, off, data)
}

// LogMigrator is implemented by engines whose replayable pure-overlay log
// records must follow a block to its new home when placement changes —
// TSUE's active DataLog units, which are neither applied to the raw block
// nor propagated to parity yet. ExtractBlockLog removes and returns blk's
// overlay records (merged extents, offset order); the migration engine
// replays them at the block's new home through the Replay hook and retires
// their reliability replicas cluster-wide (wire.ReplicaRetire), so a later
// failure of the old home cannot resurrect pre-migration state. The caller
// must hold the cluster's update fence and have settled the engine first
// (no sealed units may still reference blk). In-place schemes don't
// implement the interface: for them settling IS draining, and a drained
// block has no log to follow it.
type LogMigrator interface {
	ExtractBlockLog(p *sim.Proc, blk wire.BlockID) []wire.ReplicaItem
}

// StripeResetter is implemented by engines that keep cross-update baseline
// state per stripe which a block remap invalidates. PARIX tracks which
// ranges already shipped their original value; after recovery rebuilds a
// parity block on a fresh OSD, that coverage must be forgotten so the next
// update reships the originals and the new holder can form correct deltas
// against its re-encoded parity baseline (Equation (4)).
type StripeResetter interface {
	ResetStripe(s wire.StripeID)
}
