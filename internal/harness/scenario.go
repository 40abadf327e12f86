package harness

// The closed-loop scenario runner behind the degraded, chaos, multi-death,
// rebalance and kill-during-rebalance experiments. Every scenario has the
// same shape: build → preload (optionally drain) → reset stats → start the
// writer fleet and reader probes → warm up → run the scenario's fault
// script inside a measured window → stop and wait the load out → an
// after-window step → drain (+ tear repair) → scrub. A scenario is a spec
// over this runner: its script plus a few fixed constants.

import (
	"fmt"
	"math/rand"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// Window holds the measurements every closed-loop scenario takes around
// its fault script. The window opens once the writer fleet has completed
// cfg.Ops/3 updates (or every writer has exited) and closes when the
// script returns.
type Window struct {
	// BaselineIOPS is foreground update throughput before the window;
	// DuringIOPS is throughput inside it; DipPct is the relative drop. All
	// three stay zero for scenarios without a writer fleet.
	BaselineIOPS float64
	DuringIOPS   float64
	DipPct       float64
	// ReadLats are the latencies of reader-probe reads issued inside the
	// window — the tail each fault or recovery protocol inflates (degraded
	// reads route through on-the-fly reconstruction or block at recovery
	// gates). ReadErrs counts window reads that failed outright after
	// exhausting their retry budget (drain-first recovery serves no
	// degraded reads, so the dead node's blocks are simply unreadable).
	ReadLats []time.Duration
	ReadErrs int
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int

	// readDist caches the sorted ReadLats; built on first ReadP call, after
	// the run has finished appending samples.
	readDist *LatencyDist
}

// ReadP returns the p-quantile of the window read latencies. The samples
// are sorted once and cached, so printing a row at p50/p95/p99/p999 pays
// for one sort total.
func (w *Window) ReadP(p float64) time.Duration {
	if w.readDist == nil {
		d := NewLatencyDist(w.ReadLats)
		w.readDist = &d
	}
	return w.readDist.P(p)
}

// QuorumTraffic aggregates journal quorum replication traffic: Sent counts
// acked JournalReplica messages/bytes the surrogates pushed to their holder
// sets, Held the replica records/bytes the holders retain.
type QuorumTraffic struct {
	QuorumSentMsgs, QuorumSentBytes int64
	QuorumHeldMsgs, QuorumHeldBytes int64
}

func (q *QuorumTraffic) capture(c *cluster.Cluster) {
	q.QuorumSentMsgs, q.QuorumSentBytes, q.QuorumHeldMsgs, q.QuorumHeldBytes = c.JournalQuorumStats()
}

// mostLoaded returns the OSD (other than exclude) holding the most blocks:
// failing it keeps the rebuild volume representative, and faulting it makes
// sure the fault intersects the workload (small working sets can leave
// hash-unlucky OSDs empty). Ties go to the first OSD.
func mostLoaded(c *cluster.Cluster, exclude wire.NodeID) wire.NodeID {
	id, most := wire.NodeID(1), -1
	for _, osd := range c.OSDs {
		if osd.NodeID() == exclude {
			continue
		}
		if n := osd.Store().Len(); n > most {
			most, id = n, osd.NodeID()
		}
	}
	return id
}

// scenario is one closed-loop experiment run: a fault script plus the
// constants that shape its foreground load.
type scenario struct {
	// name labels the harness proc and the scrub errors.
	name string
	// scriptOnly runs no writer fleet or reader probes: the script drives
	// its own ops and the window opens right after the stats reset.
	scriptOnly bool
	// payloadSeed seeds the writers' payload pool at cfg.Seed+payloadSeed.
	payloadSeed int64
	// Reader probes: max(cfg.Clients/readersPer, minReaders) clients issue
	// trace-shaped reads readerGap apart (readersPer 0 = no probes), so the
	// window yields a read-latency distribution without the probes
	// themselves becoming the load.
	readersPer, minReaders int
	readerGap              time.Duration
	// drainFirst merges the preload's logs before the stats reset.
	drainFirst bool
	// script runs inside the measured window; after runs once the load has
	// stopped, before the drain (nil = nothing).
	script, after func(p *sim.Proc, r *scenarioRun) error
	// repaired, when non-nil, runs ScrubRepair after the drain (for faults
	// that can tear stripes) and receives the re-encoded block count.
	repaired *int
}

// scenarioRun is the live state a scenario's script and after step see.
type scenarioRun struct {
	c       *cluster.Cluster
	admin   *cluster.Client
	inos    []uint64
	perFile int64
	// clients lists the writer then reader client IDs in creation order.
	clients []wire.NodeID
}

// fleet is a running closed-loop foreground load. Setting stop ends the
// loops; done counts completed writer ops and live the writers still
// running; err holds the first writer failure.
type fleet struct {
	stop       bool
	done, live int
	err        error
	wg         *sim.WaitGroup
	// samples and errStarts record every probe read.
	samples   []readSample
	errStarts []time.Duration
}

type readSample struct{ start, lat time.Duration }

// runScenario builds a cluster from cfg, runs sc on it, and fills win.
func runScenario(cfg RunConfig, sc scenario, win *Window) error {
	c, err := buildCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Env.Close()
	admin := c.NewClient()
	var runErr error
	c.Env.Go(sc.name+"-harness", func(p *sim.Proc) { runErr = sc.run(p, c, admin, cfg, win) })
	c.Env.Run(0)
	return runErr
}

func (sc scenario) run(p *sim.Proc, c *cluster.Cluster, admin *cluster.Client, cfg RunConfig, win *Window) error {
	inos, perFile, err := preload(p, c, admin, cfg)
	if err != nil {
		return err
	}
	if sc.drainFirst {
		if err := c.DrainAll(p, admin); err != nil {
			return err
		}
	}
	c.ResetStats()
	r := &scenarioRun{c: c, admin: admin, inos: inos, perFile: perFile}
	start := p.Now()
	load := &fleet{wg: sim.NewWaitGroup(c.Env)}
	if !sc.scriptOnly {
		sc.startLoad(r, cfg, load)
	}

	// Warm up to steady state. The wait also ends once every writer has
	// exited: with 20*Ops < Clients each writer's op budget is zero.
	warmTarget := cfg.Ops / 3
	if warmTarget < 1 {
		warmTarget = 1
	}
	for load.done < warmTarget && load.err == nil && load.live > 0 {
		p.Sleep(100 * time.Microsecond)
	}
	if load.err != nil {
		return load.err
	}
	preOps, t0 := load.done, p.Now()
	if err := sc.script(p, r); err != nil {
		return err
	}
	t1 := p.Now()
	duringOps := load.done - preOps
	load.stop = true
	load.wg.Wait(p)
	if load.err != nil {
		return load.err
	}

	for _, sm := range load.samples {
		if sm.start >= t0 && sm.start <= t1 {
			win.ReadLats = append(win.ReadLats, sm.lat)
		}
	}
	for _, es := range load.errStarts {
		if es >= t0 && es <= t1 {
			win.ReadErrs++
		}
	}
	if d := (t0 - start).Seconds(); d > 0 {
		win.BaselineIOPS = float64(preOps) / d
	}
	if d := (t1 - t0).Seconds(); d > 0 {
		win.DuringIOPS = float64(duringOps) / d
	}
	if win.BaselineIOPS > 0 {
		win.DipPct = 100 * (1 - win.DuringIOPS/win.BaselineIOPS)
	}

	if sc.after != nil {
		if err := sc.after(p, r); err != nil {
			return err
		}
	}
	if err := c.DrainAll(p, admin); err != nil {
		return err
	}
	if sc.repaired != nil {
		blocks, _, err := c.ScrubRepair(p)
		if err != nil {
			return fmt.Errorf("scrub-repair after %s: %w", sc.name, err)
		}
		*sc.repaired = blocks
	}
	if !cfg.SkipVerify {
		n, err := c.Scrub()
		if err != nil {
			return fmt.Errorf("post-%s scrub failed: %w", sc.name, err)
		}
		win.Stripes = n
	}
	return nil
}

// startLoad launches cfg.Clients trace-driven update writers over the
// preloaded files, then the reader probes. Each writer issues up to
// 20×cfg.Ops/Clients updates: the stop flag is the intended exit, the cap
// only bounds runaway runs, and it must stay high enough that the writers
// keep offering load through the whole window — journaled degraded updates
// complete at log-append speed, far above the steady-state rate.
func (sc scenario) startLoad(r *scenarioRun, cfg RunConfig, load *fleet) {
	c, perFile := r.c, r.perFile
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(cfg.Seed + sc.payloadSeed)).Read(payload)
	opsPer := 20 * cfg.Ops / cfg.Clients
	prof := cfg.Trace
	prof.WorkingSet = perFile
	clamp := func(op trace.Op) int64 {
		if op.Off+int64(op.Size) > perFile {
			return perFile - int64(op.Size)
		}
		return op.Off
	}
	load.wg.Add(cfg.Clients)
	load.live = cfg.Clients
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		cl := c.NewClient()
		r.clients = append(r.clients, cl.ID())
		ino := r.inos[ci%len(r.inos)]
		gen := trace.MustGenerator(prof, cfg.Seed+int64(ci)*7919)
		c.Env.Go(fmt.Sprintf("fg%d", ci), func(cp *sim.Proc) {
			defer load.wg.Done()
			defer func() { load.live-- }()
			for j := 0; j < opsPer && !load.stop; j++ {
				// Update-only foreground: resample until a write so the dip
				// measures the update path (the probes cover reads).
				op := gen.Next()
				for op.Kind != trace.Write {
					op = gen.Next()
				}
				off := clamp(op)
				pstart := int(off) % (len(payload) - int(op.Size))
				if err := cl.Update(cp, ino, off, payload[pstart:pstart+int(op.Size)]); err != nil {
					if load.err == nil {
						load.err = fmt.Errorf("foreground client %d op %d: %w", ci, j, err)
					}
					return
				}
				load.done++
			}
		})
	}
	if sc.readersPer == 0 {
		return
	}
	nReaders := cfg.Clients / sc.readersPer
	if nReaders < sc.minReaders {
		nReaders = sc.minReaders
	}
	for ri := 0; ri < nReaders; ri++ {
		rcl := c.NewClient()
		r.clients = append(r.clients, rcl.ID())
		ino := r.inos[ri%len(r.inos)]
		rgen := trace.MustGenerator(prof, cfg.Seed+int64(1000+ri)*104651)
		load.wg.Add(1)
		c.Env.Go(fmt.Sprintf("rd%d", ri), func(cp *sim.Proc) {
			defer load.wg.Done()
			for j := 0; j < opsPer && !load.stop; j++ {
				op := rgen.Next()
				issued := cp.Now()
				if _, err := rcl.Read(cp, ino, clamp(op), int64(op.Size)); err != nil {
					load.errStarts = append(load.errStarts, issued)
				} else {
					load.samples = append(load.samples, readSample{start: issued, lat: cp.Now() - issued})
				}
				cp.Sleep(sc.readerGap)
			}
		})
	}
}
