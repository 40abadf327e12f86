package update

import (
	"fmt"

	"tsue/internal/logpool"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// tsue is the paper's contribution: a two-stage update scheme.
//
// Front end (synchronous): an update is appended to the local DataLog
// (memory index + sequential SSD persist) and replicated to the next OSD's
// DataLog copy, then acked — no read-modify-write on the update path.
//
// Back end (asynchronous, real-time): per-pool recyclers drain sealed log
// units — up to Options.RecycleBatch per pass, merging extents across the
// batch so repeated updates collapse before any device or network work —
// through the three-layer pipeline:
//
//	DataLog  — merged extents are RMW'd into the data block; the data deltas
//	           forward to the DeltaLog on the first parity holder (copy to
//	           the second).
//	DeltaLog — deltas of one stripe fold into per-parity-block staged deltas
//	           (Equation (5)) and ship to each parity holder's ParityLog.
//	ParityLog— merged parity deltas XOR into the parity block in place.
//
// Every layer uses the FIFO log-pool structure with the two-level index, so
// repeated and adjacent updates collapse before they cost device or network
// work. Retained recycled units double as a read cache.
type tsue struct {
	base
	o Options

	data   *tsueLayer
	delta  *tsueLayer
	parity *tsueLayer

	// Replica store: unrecycled DataLog items held for peers, by source
	// node and pool; dropped on UnitDone; replayed at recovery.
	replicaZone   int
	replicaCursor int64
	replicas      map[replicaKey][]replicaItem

	// Recovery replays merged through ReplayInto (reported as the "replay"
	// residency layer).
	replayN     int64
	replayBytes int64

	idle *sim.Cond // broadcast after every unit recycle (drain support)
}

type replicaKey struct {
	src  wire.NodeID
	pool uint16
}

type replicaItem struct {
	unitSeq uint64
	blk     wire.BlockID
	off     int64
	data    []byte
}

// tsueLayer is one log structure (DataLog, DeltaLog or ParityLog) on one OSD.
type tsueLayer struct {
	name      string
	pools     []*logpool.Pool
	zones     []int
	cursors   []int64
	queues    []*sim.Queue[*logpool.Unit]
	cond      *sim.Cond // unit recycled: stalled appenders retry
	exclusive bool      // pre-O3 baseline: recycle blocks appends
	recycling int
	stats     LayerStats
}

func newTsueLayer(h Host, name string, mode logpool.MergeMode, o Options, pools int, noMerge bool) *tsueLayer {
	l := &tsueLayer{
		name:      name,
		cond:      sim.NewCond(h.Env()),
		exclusive: !o.UseLogPool,
	}
	maxUnits := o.MaxUnits
	if !o.UseLogPool {
		// Single exclusive log: a second unit only exists so appends have
		// somewhere to land once the recycle finishes.
		maxUnits = 2
	}
	for i := 0; i < pools; i++ {
		pool := logpool.NewPool(i, mode, o.UnitSize, maxUnits)
		pool.NoMerge = noMerge
		l.pools = append(l.pools, pool)
		l.zones = append(l.zones, h.Store().Device().NewZone(fmt.Sprintf("tsue-%s-%d", name, i), true))
		l.cursors = append(l.cursors, 0)
		l.queues = append(l.queues, sim.NewQueue[*logpool.Unit](h.Env()))
	}
	return l
}

func (l *tsueLayer) poolFor(key uint64) int { return int(key % uint64(len(l.pools))) }

func (l *tsueLayer) memBytes() int64 {
	var n int64
	for _, p := range l.pools {
		n += p.Stats().MemBytes
	}
	return n
}

func (l *tsueLayer) peakBytes() int64 {
	var n int64
	for _, p := range l.pools {
		n += p.Stats().PeakMemBytes
	}
	return n
}

func (l *tsueLayer) pending() bool {
	for _, p := range l.pools {
		if p.Pending() {
			return true
		}
	}
	return false
}

func (l *tsueLayer) pendingSealed() bool {
	for _, p := range l.pools {
		if p.PendingSealed() {
			return true
		}
	}
	return false
}

func hashBlk(b wire.BlockID) uint64 {
	h := b.Ino*0x9e3779b97f4a7c15 + uint64(b.Stripe)*0x85ebca6b + uint64(b.Index)*0xc2b2ae35
	h ^= h >> 33
	return h
}

func hashStripe(s wire.StripeID) uint64 {
	h := s.Ino*0x9e3779b97f4a7c15 + uint64(s.Stripe)*0x85ebca6b
	h ^= h >> 33
	return h
}

func newTsue(h Host, o Options) *tsue {
	t := &tsue{
		base:        newBase(h),
		o:           o,
		replicaZone: h.Store().Device().NewZone("tsue-replog", true),
		replicas:    make(map[replicaKey][]replicaItem),
		idle:        sim.NewCond(h.Env()),
	}
	t.data = newTsueLayer(h, "data", logpool.Overwrite, o, o.Pools, !o.DataLocality)
	if o.UseDeltaLog {
		t.delta = newTsueLayer(h, "delta", logpool.XOR, o, o.Pools, false)
	}
	t.parity = newTsueLayer(h, "parity", logpool.XOR, o, o.Pools, !o.ParityLocality)
	// One recycler process per pool per layer (the paper's recycle thread
	// pool; units of one pool recycle in order, pools in parallel).
	t.startRecyclers(t.data, t.recycleDataUnits)
	if t.delta != nil {
		t.startRecyclers(t.delta, t.recycleDeltaUnits)
	}
	t.startRecyclers(t.parity, t.recycleParityUnits)
	return t
}

// Name returns "tsue".
func (*tsue) Name() string { return "tsue" }

// startRecyclers spawns one recycler process per pool. Each pass drains up
// to Options.RecycleBatch sealed units from the pool's queue — one blocking
// Get plus whatever else is already waiting — so that under recycle
// pressure the batch grows and extents merge across units before the single
// read-modify-write, while an idle pool still recycles unit-by-unit with no
// added latency. Units of one pool always recycle in seal order.
func (t *tsue) startRecyclers(l *tsueLayer, fn func(p *sim.Proc, poolIdx int, units []*logpool.Unit)) {
	tracer := tracerOf(t.h)
	for i := range l.pools {
		i := i
		t.h.Env().Go(fmt.Sprintf("tsue-recycle-%s-%d@%d", l.name, i, t.h.NodeID()), func(p *sim.Proc) {
			for {
				u, ok := l.queues[i].Get(p)
				if !ok {
					return
				}
				batch := []*logpool.Unit{u}
				for len(batch) < t.o.RecycleBatch {
					next, ok := l.queues[i].TryGet()
					if !ok {
						break
					}
					batch = append(batch, next)
				}
				start := p.Now()
				for _, u := range batch {
					l.pools[i].MarkRecycling(u)
					if u.FirstAppend >= 0 {
						l.stats.BufferN++
						l.stats.BufferTime += start - u.FirstAppend
					}
				}
				l.recycling++
				// A recycle pass is its own root trace (when sampled): the
				// background work is asynchronous to any foreground op, so it
				// cannot ride a client trace.
				finOp := tracer.StartOp(p, obs.OpRecycle, t.h.NodeID(), "op:recycle:"+l.name)
				fn(p, i, batch)
				finOp()
				l.recycling--
				for _, u := range batch {
					l.pools[i].MarkRecycled(u, p.Now())
					l.stats.Units++
				}
				l.cond.Broadcast()
				t.idle.Broadcast()
				l.stats.RecycleTime += p.Now() - start
			}
		})
	}
}

// appendLayer inserts one record into the layer's pool (blocking through
// stalls), persists it to the log zone sequentially, and enqueues sealed
// units for recycling. It returns the unit the record landed in.
func (t *tsue) appendLayer(p *sim.Proc, l *tsueLayer, poolIdx int, blk wire.BlockID, off int64, data []byte) *logpool.Unit {
	start := p.Now()
	pool := l.pools[poolIdx]
	for {
		if l.exclusive && l.recycling > 0 {
			l.cond.Wait(p)
			continue
		}
		sealed, ok := pool.Append(blk, off, data, p.Now())
		if !ok {
			l.cond.Wait(p)
			continue
		}
		rec := int64(len(data)) + 24
		// The on-disk log region is circular (MaxUnits units worth of
		// space per pool): recycled units' space is overwritten, which the
		// FTL sees as invalidation rather than unbounded growth.
		span := int64(t.o.MaxUnits) * t.o.UnitSize
		pos := l.cursors[poolIdx] % span
		l.cursors[poolIdx] += rec
		fin := t.logSpan(p, "log:append:tsue-"+l.name)
		t.h.Store().Device().Write(p, l.zones[poolIdx], pos, rec, false)
		fin()
		if sealed != nil {
			l.queues[poolIdx].Put(sealed)
		}
		l.stats.AppendN++
		l.stats.AppendTime += p.Now() - start
		return pool.Tail()
	}
}

// Update is the synchronous front end: append locally, replicate, ack.
func (t *tsue) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	poolIdx := t.data.poolFor(hashBlk(blk))
	u := t.appendLayer(p, t.data, poolIdx, blk, off, data)
	// Replicate to the next Copies-1 OSDs' DataLog copies (2 total on SSD,
	// 3 on HDD; §3.1.1).
	nrep := t.o.Copies - 1
	if nrep <= 0 {
		return nil
	}
	self := t.h.NodeID()
	return t.fanout(p, nrep, func(hp *sim.Proc, i int) error {
		req := &wire.LogReplica{
			SrcNode: self, Pool: uint16(poolIdx), UnitSeq: u.Seq,
			Blk: blk, Off: off, Data: data, Sum: wire.Checksum(data),
		}
		return t.callAck(hp, t.replicaTarget(i), req)
	})
}

// replicaTarget picks the i-th DataLog replica holder: the following live
// OSDs in ring order after this node.
func (t *tsue) replicaTarget(i int) wire.NodeID {
	peers := t.h.Peers()
	self := 0
	for idx, id := range peers {
		if id == t.h.NodeID() {
			self = idx
			break
		}
	}
	seen := 0
	for step := 1; step < len(peers); step++ {
		id := peers[(self+step)%len(peers)]
		if !t.h.Alive(id) {
			continue
		}
		if seen == i {
			return id
		}
		seen++
	}
	return peers[(self+1+i)%len(peers)]
}

// Handle processes the scheme's internal pipeline messages: DataLog
// replicas and their retirement, replica fetches at recovery, DeltaLog
// appends and ParityLog appends.
func (t *tsue) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	switch v := m.(type) {
	case *wire.LogReplica:
		rec := int64(len(v.Data)) + 32
		span := int64(t.o.MaxUnits) * t.o.UnitSize * 2
		fin := t.logSpan(p, "log:append:tsue-replog")
		t.h.Store().Device().Write(p, t.replicaZone, t.replicaCursor%span, rec, false)
		fin()
		t.replicaCursor += rec
		key := replicaKey{src: v.SrcNode, pool: v.Pool}
		t.replicas[key] = append(t.replicas[key], replicaItem{
			unitSeq: v.UnitSeq, blk: v.Blk, off: v.Off,
			data: append([]byte(nil), v.Data...),
		})
		return wire.OK, true
	case *wire.UnitDone:
		key := replicaKey{src: v.SrcNode, pool: v.Pool}
		items := t.replicas[key]
		keep := items[:0]
		for _, it := range items {
			if it.unitSeq != v.UnitSeq {
				keep = append(keep, it)
			}
		}
		t.replicas[key] = keep
		return wire.OK, true
	case *wire.ReplicaFetch:
		var out []wire.ReplicaItem
		var total int64
		// Deterministic order: ascending pool, then original append order.
		for pool := 0; pool < len(t.data.pools); pool++ {
			items := t.replicas[replicaKey{src: v.Node, pool: uint16(pool)}]
			for _, it := range items {
				out = append(out, wire.ReplicaItem{Blk: it.blk, Off: it.off, Data: it.data})
				total += int64(len(it.data))
			}
		}
		if total > 0 {
			t.h.Store().Device().Read(p, t.replicaZone, 0, total)
		}
		return &wire.ReplicaResp{Items: out}, true
	case *wire.DeltaAppend:
		if v.Kind != wire.KindDataDelta {
			return errAck(fmt.Errorf("tsue: unexpected delta kind %d", v.Kind)), true
		}
		if v.Replica {
			// Reliability copy of the data delta (stored on the second
			// parity holder's SSD only; never recycled, dropped implicitly).
			rec := int64(len(v.Data)) + 32
			span := int64(t.o.MaxUnits) * t.o.UnitSize * 2
			fin := t.logSpan(p, "log:append:tsue-replog")
			t.h.Store().Device().Write(p, t.replicaZone, t.replicaCursor%span, rec, false)
			fin()
			t.replicaCursor += rec
			return wire.OK, true
		}
		if t.delta == nil {
			return errAck(fmt.Errorf("tsue: DeltaLog disabled")), true
		}
		s := v.Blk.StripeID()
		t.appendLayer(p, t.delta, t.delta.poolFor(hashStripe(s)), v.Blk, v.Off, v.Data)
		return wire.OK, true
	case *wire.ParityDelta:
		t.appendLayer(p, t.parity, t.parity.poolFor(hashBlk(v.Blk)), v.Blk, v.Off, v.Data)
		return wire.OK, true
	case *wire.ReplicaRetire:
		// A migrating block's extracted DataLog records are replayed at its
		// new home; the copies held here for the old home must die with
		// them, or a later failure of that node would replay stale
		// pre-migration content over the new home's current state.
		for key, items := range t.replicas {
			if key.src != v.Node {
				continue
			}
			keep := items[:0]
			for _, it := range items {
				if it.blk != v.Blk {
					keep = append(keep, it)
				}
			}
			t.replicas[key] = keep
		}
		return wire.OK, true
	}
	return nil, false
}

// ExtractBlockLog removes and returns the block's unrecycled DataLog
// overlay records so they can follow the block to its new home (the
// log-follows-block half of a PG cutover). The caller must hold the update
// fence and have run Settle first, so blk's only unrecycled records live in
// the active unit of its data pool; the merged extents are read back from
// the log zone and returned in offset order (absolute writes of
// non-overlapping ranges — replay order among them is immaterial).
func (t *tsue) ExtractBlockLog(p *sim.Proc, blk wire.BlockID) []wire.ReplicaItem {
	poolIdx := t.data.poolFor(hashBlk(blk))
	exts := t.data.pools[poolIdx].ExtractActive(blk)
	if len(exts) == 0 {
		return nil
	}
	out := make([]wire.ReplicaItem, 0, len(exts))
	var total int64
	for _, e := range exts {
		out = append(out, wire.ReplicaItem{Blk: blk, Off: e.Off, Data: e.Data})
		total += int64(len(e.Data))
	}
	t.h.Store().Device().Read(p, t.data.zones[poolIdx], 0, total)
	return out
}

var _ LogMigrator = (*tsue)(nil)

// recycleDataUnits merges a batch of DataLog units into data blocks and
// forwards the data deltas downstream. Extents of one block merge across
// the whole batch (latest write wins) before the single read-modify-write,
// so an update overwritten in a later unit never touches the device; the
// forwarded delta is the XOR of old and merged-new content, which equals
// the fold of the per-unit deltas (XOR is associative).
func (t *tsue) recycleDataUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	// A dead node's recyclers discard their work: the store is lost and the
	// unrecycled items live on in the replicas recovery replays.
	if !t.h.Alive(t.h.NodeID()) {
		return
	}
	c := t.h.Code()
	k, mm := c.K, c.M
	st := t.h.Store()
	merged, order := logpool.MergeUnits(units, logpool.Overwrite, t.data.pools[poolIdx].NoMerge)
	for _, blk := range order {
		bl := merged[blk]
		s := blk.StripeID()
		osds := t.h.Placement(s)
		for _, ext := range bl.Extents() {
			// ReadRange returns a fresh copy of the old bytes; the delta
			// overwrites it in place.
			delta, err := st.ReadRange(p, blk, ext.Off, int64(len(ext.Data)))
			if err != nil {
				panic("tsue: data recycle read: " + err.Error())
			}
			rs.DataDelta(delta, ext.Data, delta)
			if err := st.WriteRange(p, blk, ext.Off, ext.Data); err != nil {
				panic("tsue: data recycle write: " + err.Error())
			}
			if t.delta != nil && t.h.Alive(osds[k]) {
				// Primary delta to P1's DeltaLog; copy to P2 (if M >= 2).
				req := &wire.DeltaAppend{Blk: blk, Off: ext.Off, Data: delta, Kind: wire.KindDataDelta, Sum: wire.Checksum(delta)}
				if err := t.callAck(p, osds[k], req); err != nil {
					if !t.h.Alive(t.h.NodeID()) {
						return // we died mid-recycle; replicas replay
					}
					if t.h.Alive(osds[k]) {
						panic("tsue: delta fwd: " + err.Error())
					}
					// The DeltaLog holder died mid-forward (nothing was
					// appended): degrade to direct parity appends.
					t.forwardParityDirect(p, s, blk, ext.Off, delta, osds)
				} else if mm >= 2 && t.o.Copies >= 2 {
					// Reliability copy; best effort — a dead holder only
					// narrows the redundancy window.
					cp := &wire.DeltaAppend{Blk: blk, Off: ext.Off, Data: delta, Kind: wire.KindDataDelta, Replica: true, Sum: wire.Checksum(delta)}
					_ = t.callAck(p, osds[k+1], cp)
				}
			} else {
				// No DeltaLog (HDD config / pre-O5) or its holder is down:
				// multiply locally and append straight to each live
				// ParityLog.
				t.forwardParityDirect(p, s, blk, ext.Off, delta, osds)
			}
			t.data.stats.RecycleN++
		}
	}
	// Tell replica holders to drop their copies of these units (best
	// effort; stale replica entries are only garbage, never incorrectness).
	nrep := t.o.Copies - 1
	for _, u := range units {
		for i := 0; i < nrep; i++ {
			done := &wire.UnitDone{SrcNode: t.h.NodeID(), Pool: uint16(poolIdx), UnitSeq: u.Seq}
			_ = t.callAck(p, t.replicaTarget(i), done)
		}
	}
}

// forwardParityDirect multiplies a data delta locally and appends it to
// each live parity holder's ParityLog — the no-DeltaLog path, also the
// degraded fallback when the DeltaLog holder is down. Deltas for a dead
// parity holder are dropped: its block is rebuilt by re-encoding the
// already-updated data (degraded-mode recovery).
func (t *tsue) forwardParityDirect(p *sim.Proc, s wire.StripeID, blk wire.BlockID, off int64, delta []byte, osds []wire.NodeID) {
	c := t.h.Code()
	k, mm := c.K, c.M
	for j := 0; j < mm; j++ {
		if !t.h.Alive(osds[k+j]) {
			continue
		}
		pd := mulDelta(c, j, int(blk.Index), delta)
		req := &wire.ParityDelta{Blk: t.parityBlock(s, j), Off: off, Data: pd, Sum: wire.Checksum(pd)}
		if err := t.callAck(p, osds[k+j], req); err != nil {
			if !t.h.Alive(osds[k+j]) || !t.h.Alive(t.h.NodeID()) {
				continue // one end died mid-forward; recovery repairs
			}
			panic("tsue: parity fwd: " + err.Error())
		}
	}
}

// recycleDeltaUnits folds a batch of DeltaLog units' data deltas into
// per-parity staged deltas and ships them to the parity logs. Deltas XOR-
// merge across units first, then each stripe's extents fold through the
// codec's batched Equation (5) (rs.FoldDeltas) in one pass.
func (t *tsue) recycleDeltaUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	// Dead node: buffered deltas are lost with it; the re-encode repair
	// rebuilds the parities they were destined for.
	if !t.h.Alive(t.h.NodeID()) {
		return
	}
	c := t.h.Code()
	k, mm := c.K, c.M
	merged, order := logpool.MergeUnits(units, logpool.XOR, false)
	perStripe := make(map[wire.StripeID][]rs.DeltaExtent)
	var stripes []wire.StripeID
	for _, blk := range order {
		s := blk.StripeID()
		if _, ok := perStripe[s]; !ok {
			stripes = append(stripes, s)
		}
		for _, ext := range merged[blk].Extents() {
			perStripe[s] = append(perStripe[s], rs.DeltaExtent{Block: int(blk.Index), Off: ext.Off, Data: ext.Data})
			t.delta.stats.RecycleN++
		}
	}
	for _, s := range stripes {
		folded := c.FoldDeltas(perStripe[s])
		osds := t.h.Placement(s)
		for j := 0; j < mm; j++ {
			// Deltas for a dead parity holder are dropped; recovery rebuilds
			// that block by re-encoding the data.
			if !t.h.Alive(osds[k+j]) {
				continue
			}
			pblk := t.parityBlock(s, j)
			for _, ext := range folded[j] {
				req := &wire.ParityDelta{Blk: pblk, Off: ext.Off, Data: ext.Data, Sum: wire.Checksum(ext.Data)}
				if err := t.callAck(p, osds[k+j], req); err != nil {
					if !t.h.Alive(osds[k+j]) || !t.h.Alive(t.h.NodeID()) {
						break // one end died mid-fold; recovery repairs
					}
					panic("tsue: parity delta fwd: " + err.Error())
				}
			}
		}
	}
}

// recycleParityUnits XORs a batch of ParityLog units' merged deltas into
// parity blocks in place — one read-modify-write per merged extent, however
// many units contributed to it.
func (t *tsue) recycleParityUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	merged, order := logpool.MergeUnits(units, logpool.XOR, t.parity.pools[poolIdx].NoMerge)
	for _, blk := range order {
		for _, ext := range merged[blk].Extents() {
			if err := t.applyParityDelta(p, blk, ext.Off, ext.Data); err != nil {
				panic("tsue: parity recycle: " + err.Error())
			}
			t.parity.stats.RecycleN++
		}
	}
}

// Read consults the DataLog read cache (§3.3.3): a fully covered range is
// served from the index without touching the device; otherwise the block is
// read and the log overlays applied (newest wins).
func (t *tsue) Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	pool := t.data.pools[t.data.poolFor(hashBlk(blk))]
	if pool.Covers(blk, off, size) {
		buf := make([]byte, size)
		pool.Overlay(blk, off, buf)
		return buf, nil
	}
	buf, err := t.h.Store().ReadRange(p, blk, off, size)
	if err != nil {
		return nil, err
	}
	pool.Overlay(blk, off, buf)
	return buf, nil
}

// Drain seals all active units and waits until every layer is quiescent.
// The cluster layer repeats drains across OSDs until a full round is clean,
// which flushes cross-node pipeline stages.
func (t *tsue) Drain(p *sim.Proc) error {
	layers := []*tsueLayer{t.data, t.delta, t.parity}
	for {
		busy := false
		for _, l := range layers {
			if l == nil {
				continue
			}
			for i, pool := range l.pools {
				if u := pool.SealActive(p.Now()); u != nil {
					l.queues[i].Put(u)
				}
			}
			if l.pending() {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		t.idle.Wait(p)
	}
}

// Settle drains the downstream pipeline — sealed DataLog units mid-recycle,
// the DeltaLog and the ParityLog — but keeps active (unsealed) DataLog
// units in place. Those are pure overlay: their extents have touched
// neither the data block nor any parity, and every item is replicated, so
// recovery can reconstruct the raw stripe and replay them (§4.2). This is
// TSUE's structural advantage at recovery time: the merge debt a failure
// must pay is bounded by the in-flight recycle window, not the log volume.
//
// The exception is items for the failed node's stripes: their raw shards
// are reconstruction's input and must stay frozen through the degraded
// window, but a retained item would apply whenever its unit later seals
// under foreground appends — an RMW racing the rebuild. Settle therefore
// force-seals (and drains through) every active DataLog unit holding an
// item for a degraded stripe; unrelated active units stay as overlay.
//
// Settle is a barrier: the caller must fence appends (the recovery gate)
// while it runs.
func (t *tsue) Settle(p *sim.Proc, failed wire.NodeID) error {
	for {
		if failed != 0 {
			for i, pool := range t.data.pools {
				if u := pool.Active(); u != nil && t.unitTouchesStripesOf(u, failed) {
					if su := pool.SealActive(p.Now()); su != nil {
						t.data.queues[i].Put(su)
					}
				}
			}
		}
		for _, l := range []*tsueLayer{t.delta, t.parity} {
			if l == nil {
				continue
			}
			for i, pool := range l.pools {
				if u := pool.SealActive(p.Now()); u != nil {
					l.queues[i].Put(u)
				}
			}
		}
		if !t.NeedsSettle(failed) {
			return nil
		}
		t.idle.Wait(p)
	}
}

// unitTouchesStripesOf reports whether any of the unit's blocks belongs to
// a stripe whose placement includes the given (failed) node — the stripes
// recovery will read raw and therefore must not be mutated by a later
// recycle of this unit.
func (t *tsue) unitTouchesStripesOf(u *logpool.Unit, node wire.NodeID) bool {
	for _, blk := range u.Blocks() {
		for _, id := range t.h.Placement(blk.StripeID()) {
			if id == node {
				return true
			}
		}
	}
	return false
}

// NeedsSettle reports whether partially-applied pipeline state remains:
// sealed DataLog units (their RMW may have started), anything in the
// delta/parity layers, or — under a failure — active DataLog units
// touching the failed node's stripes. Other active DataLog units do not
// count: they are replayable overlay.
func (t *tsue) NeedsSettle(failed wire.NodeID) bool {
	if t.data.pendingSealed() {
		return true
	}
	if failed != 0 {
		for _, pool := range t.data.pools {
			if u := pool.Active(); u != nil && t.unitTouchesStripesOf(u, failed) {
				return true
			}
		}
	}
	if t.delta != nil && t.delta.pending() {
		return true
	}
	return t.parity.pending()
}

// ReplayInto merges one recovered record (surrogate-journal or
// DataLog-replica item) through the normal two-stage path: DataLog append
// plus replication, then the asynchronous three-layer recycle. Replays are
// tracked as the "replay" residency layer.
func (t *tsue) ReplayInto(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	t.replayN++
	t.replayBytes += int64(len(data))
	return t.Update(p, blk, off, data)
}

var _ Replayer = (*tsue)(nil)

// Dirty reports whether any layer holds unrecycled state.
func (t *tsue) Dirty() bool {
	for _, l := range []*tsueLayer{t.data, t.delta, t.parity} {
		if l != nil && l.pending() {
			return true
		}
	}
	return false
}

// MemBytes sums the three layers' current log memory.
func (t *tsue) MemBytes() int64 {
	n := t.data.memBytes() + t.parity.memBytes()
	if t.delta != nil {
		n += t.delta.memBytes()
	}
	return n
}

// PeakMemBytes sums the three layers' peak log memory.
func (t *tsue) PeakMemBytes() int64 {
	n := t.data.peakBytes() + t.parity.peakBytes()
	if t.delta != nil {
		n += t.delta.peakBytes()
	}
	return n
}

// Residency reports per-layer timing for the paper's Table 2, plus a
// synthetic "replay" layer counting records merged through ReplayInto
// (AppendN = records, RecycleN = bytes).
func (t *tsue) Residency() map[string]LayerStats {
	out := map[string]LayerStats{
		"data":   t.data.stats,
		"parity": t.parity.stats,
	}
	if t.delta != nil {
		out["delta"] = t.delta.stats
	}
	if t.replayN > 0 {
		out["replay"] = LayerStats{AppendN: t.replayN, RecycleN: t.replayBytes}
	}
	return out
}

var _ ResidencyReporter = (*tsue)(nil)
