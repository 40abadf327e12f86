package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/device"
	"tsue/internal/netsim"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// workload is one fixed input shape. Every workload runs RS(6,4) on 16
// OSDs with the SSD model, 1 MiB blocks and 16 closed-loop clients, each
// confined to its own slice of a single volume.
type workload struct {
	name    string
	engine  string
	profile func(workingSet int64) trace.Profile
	volume  int64 // working set: the volume's size in bytes
	ops     int   // foreground ops across all clients
	// recoveries > 0 skips the explicit drain: after the burst, that many
	// OSDs fail in sequence and each is rebuilt drain-first, so the
	// burst's merge debt is paid inside the first recovery.
	recoveries int
}

const (
	osds      = 16
	dataK     = 6
	parityM   = 4
	blockSize = 1 << 20
	clients   = 16
	// readBack is the chunk size of the post-run whole-volume read-back.
	readBack = 1 << 20
)

var workloads = []workload{
	{name: "tsue-ali", engine: "tsue", profile: trace.AliCloud, volume: 48 << 20, ops: 9600},
	{name: "fo-ten", engine: "fo", profile: trace.TenCloud, volume: 48 << 20, ops: 6000},
	{name: "recover", engine: "tsue", profile: trace.AliCloud, volume: 96 << 20, ops: 3200, recoveries: 4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineOptions is the repository's scaled paper configuration (1 MiB log
// units for a tens-of-MiB volume, unit-by-unit recycling), pinned here so
// the workloads change only with an edit to the benchmark.
func engineOptions() update.Options {
	o := update.DefaultOptions()
	o.UnitSize = 1 << 20
	o.RecycleBatch = 1
	o.RecycleThreshold = 64 << 20
	o.PLRReserve = 8 << 10
	o.CordBufferSize = 1 << 20
	return o
}

func clusterConfig(w workload, traced bool) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.OSDs, cfg.K, cfg.M = osds, dataK, parityM
	cfg.BlockSize = blockSize
	cfg.MatrixKind = rs.Vandermonde
	cfg.Engine = w.engine
	cfg.EngineOpts = engineOptions()
	cfg.DeviceKind = device.SSD
	cfg.DeviceParams = device.SSDParams()
	perOSD := w.volume * (dataK + parityM) / dataK / osds
	cfg.DeviceParams.Capacity = perOSD*2 + 512<<20
	cfg.DeviceParams.PageSize = 16 << 10
	cfg.DeviceParams.BlockPages = 64
	cfg.NetParams = netsim.Ethernet25G()
	cfg.PGs = 128
	if traced {
		cfg.TraceSample = 1
	}
	return cfg
}

// phase names the stretch of a batch the driver process is in. The host
// loop stamps the host clock whenever it changes.
type phase int

const (
	phSetup phase = iota
	phReplay
	phDrain
	phRecover
	phVerify
	phDone
	nPhases
)

// simOutcome holds every simulated-clock result and count of one batch.
// Each field is a function of the seed alone, so two batches of one seed,
// traced or not, must compare equal.
type simOutcome struct {
	Ops, Updates, Reads int
	UpdateBytes         int64
	// SteadyOps ops completed in SteadyTime, from the first op issued until
	// the first client ran out of ops: the stretch with all clients busy.
	SteadyOps                  int
	SteadyTime                 time.Duration
	UpdMean, UpdP50, UpdP99    time.Duration
	ReadMean, ReadP50, ReadP99 time.Duration
	Dev                        device.Stats
	Net                        netsim.Stats
	Data, Delta, Parity        update.LayerStats
	PeakMem                    int64
	RecBytes                   int64
	RecTime                    time.Duration
	Events                     int64 // kernel events in the timed phase
	ProcsPeak                  int
	Stripes                    int // stripes scrubbed after the timed phase
	// Attempted counts checked operations: client ops, recoveries, the
	// scrub and the read-back chunks; Failed those that erred or returned
	// bytes other than the shadow copy's.
	Attempted, Failed int
}

// fingerprint is a short hash of every field.
func (s simOutcome) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// hostCost is one batch's host-clock cost.
type hostCost struct {
	setup, run float64 // seconds
	cpu        float64 // user+sys seconds over the timed phase
	alloc      uint64  // heap bytes allocated over the timed phase
	peakMem    uint64  // most memory held from the OS, sampled across the batch
	phase      [nPhases]float64
}

// batchResult is one batch: set-up, timed phase, verification.
type batchResult struct {
	sim    simOutcome
	host   hostCost
	stages [obs.NStages]time.Duration // mean per update; traced batches only
	err    error                      // the first failure, if any
}

// tracedHooks brackets the timed phase of a traced batch. start runs just
// before the phase's host clock starts, stop just after it stops.
type tracedHooks struct {
	start, stop func()
}

// batch is one run of a workload under the benchmark's own event loop.
type batch struct {
	w    workload
	seed int64
	c    *cluster.Cluster

	volume []byte // the benchmark's shadow copy of the volume
	ino    uint64
	ph     phase
	res    batchResult

	updLat, readLat []time.Duration
}

// runBatch builds the cluster, preloads it, runs the timed phase and
// verifies the outcome. deadline bounds the host time the batch may take.
func runBatch(w workload, seed int64, hooks *tracedHooks, deadline time.Time) batchResult {
	// Start every batch from an empty heap with its memory returned to the
	// OS, so no batch inherits pages or garbage from the one before.
	debug.FreeOSMemory()
	b := &batch{w: w, seed: seed}
	var stamps [nPhases + 1]time.Time
	var cpu [nPhases + 1]float64
	var alloc [nPhases + 1]uint64
	mark := func(p phase) {
		if hooks != nil && p == phReplay {
			hooks.start()
		}
		stamps[p] = time.Now()
		cpu[p] = cpuSeconds()
		alloc[p] = totalAlloc()
		if hooks != nil && p == phVerify {
			hooks.stop()
		}
	}
	mark(phSetup)

	c, err := cluster.New(clusterConfig(w, hooks != nil))
	if err != nil {
		b.res.err = fmt.Errorf("build cluster: %w", err)
		return b.res
	}
	b.c = c
	defer c.Env.Close()
	c.Env.Go("perfbench-driver", b.drive)

	// Step the kernel here instead of Env.Run(0) so the loop can count
	// events, sample the process count, stamp phase boundaries on the host
	// clock and give up past the deadline. The event order is Run's.
	env := c.Env
	mem := newMemProbe()
	stamped := phSetup
	for step := 1; env.HasPendingEvents(); step++ {
		env.ProcessNextEvent()
		if b.ph != stamped {
			for p := stamped + 1; p <= b.ph; p++ {
				mark(p)
			}
			stamped = b.ph
		}
		if stamped >= phReplay && stamped < phVerify {
			b.res.sim.Events++
			if n := env.LiveProcs(); n > b.res.sim.ProcsPeak {
				b.res.sim.ProcsPeak = n
			}
		}
		if step&255 == 0 {
			if m := mem.read(); m > b.res.host.peakMem {
				b.res.host.peakMem = m
			}
		}
		if step&1023 == 0 && time.Now().After(deadline) {
			b.res.err = fmt.Errorf("%s: timed out in %s", w.name, phaseNames[stamped])
			return b.res
		}
	}
	if b.ph != phDone && b.res.err == nil {
		b.res.err = fmt.Errorf("%s: simulation stalled in %s", w.name, phaseNames[b.ph])
	}
	if b.res.err != nil {
		return b.res
	}
	stamps[nPhases] = time.Now()

	h := &b.res.host
	for p := phSetup; p < phDone; p++ {
		h.phase[p] = stamps[p+1].Sub(stamps[p]).Seconds()
	}
	h.setup = h.phase[phSetup]
	h.run = stamps[phVerify].Sub(stamps[phReplay]).Seconds()
	h.cpu = cpu[phVerify] - cpu[phReplay]
	h.alloc = alloc[phVerify] - alloc[phReplay]
	if hooks != nil {
		b.res.stages = updateStageMeans(c.Obs.Tracer.Spans())
	}
	return b.res
}

var phaseNames = [nPhases]string{"setup", "replay", "drain", "recover", "verify", "done"}

// check counts one checked operation and reports whether it succeeded; the
// batch keeps the first failure.
func (b *batch) check(err error) bool {
	b.res.sim.Attempted++
	if err == nil {
		return true
	}
	b.res.sim.Failed++
	if b.res.err == nil {
		b.res.err = err
	}
	return false
}

// drive is the batch's simulated driver process.
func (b *batch) drive(p *sim.Proc) {
	defer func() { b.ph = phDone }()
	c := b.c
	admin := c.NewClient()
	if !b.check(b.preload(p, admin)) {
		return
	}
	c.ResetStats()

	b.ph = phReplay
	b.replay(p)
	s := &b.res.sim
	s.PeakMem = c.PeakMemBytes()

	if b.w.recoveries == 0 {
		b.ph = phDrain
		if err := c.DrainAll(p, admin); !b.check(wrap(err, "drain")) {
			return
		}
	} else {
		b.ph = phRecover
		for _, victim := range b.victims() {
			rep, err := c.Recover(p, victim, 8, cluster.RecoverDrainFirst, admin)
			if !b.check(wrap(err, fmt.Sprintf("recover node %d", victim))) {
				return
			}
			s.RecBytes += rep.Bytes
			s.RecTime += rep.TotalTime
		}
	}
	s.Dev = c.DeviceStats()
	s.Net = c.Fabric.TotalStats()
	if r := c.Residency(); r != nil {
		s.Data, s.Delta, s.Parity = r["data"], r["delta"], r["parity"]
	}

	b.ph = phVerify
	b.verify(p, admin)
}

// victims picks the OSDs the recover workload fails, distinct and seeded.
func (b *batch) victims() []wire.NodeID {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	out := make([]wire.NodeID, 0, b.w.recoveries)
	for _, i := range rng.Perm(osds)[:b.w.recoveries] {
		out = append(out, wire.NodeID(i+1))
	}
	return out
}

// preload creates the volume and writes seeded content through the
// encoded write path. The content doubles as the shadow copy.
func (b *batch) preload(p *sim.Proc, admin *cluster.Client) error {
	b.volume = make([]byte, b.w.volume)
	rand.New(rand.NewSource(b.seed)).Read(b.volume)
	ino, err := admin.Create(p, "vol0", b.w.volume)
	if err != nil {
		return fmt.Errorf("create volume: %w", err)
	}
	b.ino = ino
	if err := admin.WriteFile(p, ino, b.volume); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// replay runs the closed-loop clients to completion. Client i owns bytes
// [i*slice, (i+1)*slice) of the volume, so the shadow copy is exact and
// every read is checked against it byte for byte.
func (b *batch) replay(p *sim.Proc) {
	c := b.c
	slice := b.w.volume / clients
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(b.seed + 999)).Read(payload)
	start := p.Now()
	wg := sim.NewWaitGroup(c.Env)
	wg.Add(clients)
	for ci := 0; ci < clients; ci++ {
		cl := c.NewClient()
		base := int64(ci) * slice
		gen := trace.MustGenerator(b.w.profile(slice), b.seed*1_000_003+int64(ci)*7919)
		n := b.w.ops / clients
		c.Env.Go(fmt.Sprintf("client%d", ci), func(cp *sim.Proc) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				b.clientOp(cp, cl, gen.Next(), base, slice, payload)
			}
			if s := &b.res.sim; s.SteadyTime == 0 {
				s.SteadyOps, s.SteadyTime = s.Ops, cp.Now()-start
			}
		})
	}
	wg.Wait(p)
	s := &b.res.sim
	s.UpdMean, s.UpdP50, s.UpdP99 = summarize(b.updLat)
	s.ReadMean, s.ReadP50, s.ReadP99 = summarize(b.readLat)
}

func (b *batch) clientOp(p *sim.Proc, cl *cluster.Client, op trace.Op, base, slice int64, payload []byte) {
	s := &b.res.sim
	size := int64(op.Size)
	off := op.Off
	if off+size > slice {
		off = slice - size
	}
	abs := base + off
	t0 := p.Now()
	if op.Kind == trace.Write {
		pstart := abs % int64(len(payload)-int(size))
		data := payload[pstart : pstart+size]
		err := cl.Update(p, b.ino, abs, data)
		if err != nil {
			err = fmt.Errorf("update [%d,+%d): %w", abs, size, err)
		}
		if !b.check(err) {
			return
		}
		copy(b.volume[abs:], data)
		b.updLat = append(b.updLat, p.Now()-t0)
		s.Updates++
		s.UpdateBytes += size
	} else {
		got, err := cl.Read(p, b.ino, abs, size)
		if !b.check(b.compare(got, err, abs, size)) {
			return
		}
		b.readLat = append(b.readLat, p.Now()-t0)
		s.Reads++
	}
	s.Ops++
}

// verify scrubs every stripe and reads the whole volume back against the
// shadow copy.
func (b *batch) verify(p *sim.Proc, admin *cluster.Client) {
	s := &b.res.sim
	n, err := b.c.Scrub()
	if !b.check(wrap(err, "scrub")) {
		return
	}
	s.Stripes = n
	for off := int64(0); off < b.w.volume; off += readBack {
		size := min(readBack, b.w.volume-off)
		got, err := admin.Read(p, b.ino, off, size)
		b.check(b.compare(got, err, off, size))
	}
}

// compare checks a read of the volume at off against the shadow copy.
func (b *batch) compare(got []byte, err error, off, size int64) error {
	if err != nil {
		return fmt.Errorf("read [%d,+%d): %w", off, size, err)
	}
	if !bytes.Equal(got, b.volume[off:off+size]) {
		return fmt.Errorf("read [%d,+%d) differs from the shadow copy", off, size)
	}
	return nil
}

// wrap names the failed operation.
func wrap(err error, op string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", op, err)
}

// summarize returns the mean and the nearest-rank p50 and p99 of the
// samples.
func summarize(samples []time.Duration) (mean, p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	rank := func(q float64) time.Duration { return s[int(math.Ceil(q*float64(len(s))))-1] }
	return sum / time.Duration(len(s)), rank(0.50), rank(0.99)
}

// updateStageMeans attributes each traced update's end-to-end time to
// stages and returns the per-update mean of each stage.
func updateStageMeans(spans []obs.Span) [obs.NStages]time.Duration {
	var sum [obs.NStages]time.Duration
	n := 0
	for _, tv := range obs.GroupTraces(spans) {
		if tv.Op != obs.OpUpdate {
			continue
		}
		n++
		bd := tv.Breakdown()
		for s := range bd {
			sum[s] += bd[s]
		}
	}
	if n > 0 {
		for s := range sum {
			sum[s] /= time.Duration(n)
		}
	}
	return sum
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// memProbe reads how much memory the Go runtime holds from the OS: all
// it has mapped, less the heap pages it has returned.
type memProbe struct{ s [2]metrics.Sample }

func newMemProbe() *memProbe {
	p := &memProbe{}
	p.s[0].Name = "/memory/classes/total:bytes"
	p.s[1].Name = "/memory/classes/heap/released:bytes"
	return p
}

func (p *memProbe) read() uint64 {
	metrics.Read(p.s[:])
	return p.s[0].Value.Uint64() - p.s[1].Value.Uint64()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
