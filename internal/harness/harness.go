// Package harness builds simulated ECFS clusters, replays traces against
// them, and regenerates every table and figure of the TSUE paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the measured shapes next to the paper's.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/device"
	"tsue/internal/netsim"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// RunConfig describes one trace-replay run.
type RunConfig struct {
	Engine    string
	Trace     trace.Profile
	K, M      int
	OSDs      int
	Clients   int
	Ops       int   // total ops across all clients
	FileBytes int64 // total preloaded volume == trace working set
	BlockSize int64
	Device    device.Kind
	Opts      update.Options
	Seed      int64
	// Files splits the working set across this many files (>= 1; Validate
	// rejects zero). Each client works against file (client index mod
	// Files), so stripes — and with them recovery fan-out, surrogate load
	// and degraded-journal pressure — spread across placement groups the
	// way a multi-tenant cluster's would.
	Files int
	// PGs is the cluster's placement-group count (>= 1; Validate rejects
	// zero — DefaultRunConfig carries the 8-per-OSD default explicitly).
	PGs int
	// MaxTime caps the replay in virtual time (0 = ops only).
	MaxTime time.Duration
	// Hedge > 0 arms hedged degraded reads (cluster.Config.HedgeDelay):
	// on-the-fly reconstructions launch a second attempt from the
	// alternate survivor set after this deadline. The chaos experiment's
	// straggler scenarios set it; everything else leaves it off.
	Hedge time.Duration
	// SkipVerify disables the drain+scrub gate (never set in experiments;
	// used by tests that verify separately).
	SkipVerify bool
	// Admission, when non-nil, installs MDS admission control
	// (cluster.Config.Admission): every client block op first asks the MDS
	// for a slot and overload bounces surface as cluster.ErrOverload. The
	// saturation experiment sets it; closed-loop replays leave it nil
	// (zero overhead — no admission round trip at all).
	Admission cluster.AdmissionPolicy
	// TraceSample, when > 0, traces every n-th foreground op end-to-end
	// (cluster.Config.TraceSample). Tracing never perturbs virtual time —
	// span context rides every wire message whether sampled or not — so any
	// run can turn it on without changing its measurements. The obs
	// experiment sets 1 (trace everything); everything else leaves it 0.
	TraceSample int
}

// DefaultRunConfig returns the paper-shaped SSD configuration scaled to a
// tractable working set.
func DefaultRunConfig() RunConfig {
	opts := update.DefaultOptions()
	opts.UnitSize = 1 << 20          // scale the 16 MiB units to the scaled trace volume
	opts.RecycleBatch = 1            // paper fidelity: the paper recycles unit-by-unit; the Sweep experiment opts into batching
	opts.RecycleThreshold = 64 << 20 // PL/PARIX lazy logs defer recycling beyond the run (paper: "indefinitely delayed")
	opts.PLRReserve = 8 << 10
	opts.CordBufferSize = 1 << 20
	return RunConfig{
		Engine:    "tsue",
		K:         6,
		M:         4,
		OSDs:      16,
		Clients:   16,
		Ops:       6000,
		FileBytes: 48 << 20,
		BlockSize: 1 << 20,
		Device:    device.SSD,
		Opts:      opts,
		Seed:      1,
		Files:     1,
		PGs:       128,
	}
}

// Validate rejects nonsensical run parameters with a clear error instead
// of a downstream panic or a silent default. Everything that counts
// something must be positive; engine options whose zero value means
// "default" must not be negative.
func (cfg RunConfig) Validate() error {
	switch {
	case cfg.Engine == "":
		return fmt.Errorf("harness: Engine must be set")
	case cfg.K < 1 || cfg.M < 1:
		return fmt.Errorf("harness: RS(%d,%d) needs K >= 1 and M >= 1", cfg.K, cfg.M)
	case cfg.OSDs < cfg.K+cfg.M:
		return fmt.Errorf("harness: %d OSDs cannot host RS(%d,%d) stripes", cfg.OSDs, cfg.K, cfg.M)
	case cfg.Clients < 1:
		return fmt.Errorf("harness: Clients must be >= 1, got %d", cfg.Clients)
	case cfg.Ops < 1:
		return fmt.Errorf("harness: Ops must be >= 1, got %d", cfg.Ops)
	case cfg.FileBytes < 1:
		return fmt.Errorf("harness: FileBytes must be >= 1, got %d", cfg.FileBytes)
	case cfg.BlockSize < 1:
		return fmt.Errorf("harness: BlockSize must be >= 1, got %d", cfg.BlockSize)
	case cfg.Files < 1:
		return fmt.Errorf("harness: Files must be >= 1, got %d", cfg.Files)
	case cfg.PGs < 1:
		return fmt.Errorf("harness: PGs must be >= 1, got %d", cfg.PGs)
	case cfg.MaxTime < 0:
		return fmt.Errorf("harness: MaxTime must not be negative, got %v", cfg.MaxTime)
	case cfg.Opts.RecycleBatch < 0:
		return fmt.Errorf("harness: RecycleBatch must not be negative, got %d", cfg.Opts.RecycleBatch)
	case cfg.Opts.Pools < 0 || cfg.Opts.MaxUnits < 0 || cfg.Opts.Copies < 0:
		return fmt.Errorf("harness: engine pool/unit/copy counts must not be negative")
	case cfg.Opts.MaxUnits == 1:
		return fmt.Errorf("harness: MaxUnits must be 0 (default) or >= 2: a log pool needs one active and one recycling unit")
	case cfg.Opts.UnitSize < 0 || cfg.Opts.CordBufferSize < 0:
		return fmt.Errorf("harness: UnitSize and CordBufferSize must not be negative, got %d and %d", cfg.Opts.UnitSize, cfg.Opts.CordBufferSize)
	}
	return nil
}

// Result captures one run's measurements.
type Result struct {
	Cfg         RunConfig
	Ops         int
	Elapsed     time.Duration
	IOPS        float64
	Device      device.Stats
	Net         netsim.Stats
	PeakMem     int64
	FinalMem    int64
	Residency   map[string]update.LayerStats
	Completions []time.Duration // per-op completion times (relative to start)
	Stripes     int             // scrubbed stripes
}

// Timeline buckets completions into n equal intervals and returns ops/sec
// per bucket.
func (r *Result) Timeline(n int) []float64 {
	if n <= 0 || r.Elapsed <= 0 {
		return nil
	}
	out := make([]float64, n)
	per := r.Elapsed / time.Duration(n)
	if per <= 0 {
		return out
	}
	for _, t := range r.Completions {
		i := int(t / per)
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	for i := range out {
		out[i] /= per.Seconds()
	}
	return out
}

// buildCluster translates a RunConfig into a live simulated cluster.
func buildCluster(cfg RunConfig) (*cluster.Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := cluster.DefaultConfig()
	ccfg.OSDs = cfg.OSDs
	ccfg.K, ccfg.M = cfg.K, cfg.M
	ccfg.BlockSize = cfg.BlockSize
	ccfg.Engine = cfg.Engine
	ccfg.EngineOpts = cfg.Opts
	ccfg.HedgeDelay = cfg.Hedge
	ccfg.Admission = cfg.Admission
	ccfg.TraceSample = cfg.TraceSample
	ccfg.DeviceKind = cfg.Device
	if cfg.Device == device.HDD {
		ccfg.DeviceParams = device.HDDParams()
		ccfg.NetParams = netsim.Infiniband40G()
	} else {
		ccfg.DeviceParams = device.SSDParams()
		// Size the FTL so update churn forces garbage collection, with headroom
		// for the bounded circular log regions (a too-small device makes the
		// GC thrash on live log space, which no real deployment would size).
		perOSD := cfg.FileBytes * int64(cfg.K+cfg.M) / int64(cfg.K) / int64(cfg.OSDs)
		ccfg.DeviceParams.Capacity = perOSD*2 + 512<<20
		ccfg.DeviceParams.PageSize = 16 << 10
		ccfg.DeviceParams.BlockPages = 64
	}
	ccfg.MatrixKind = rs.Vandermonde
	ccfg.PGs = cfg.PGs
	return cluster.New(ccfg)
}

// preload creates the run's file set ("vol0"..) and writes deterministic
// content through the normal encoded write path, returning the inodes and
// the per-file byte size. The working set splits evenly across cfg.Files,
// rounded up to whole stripes.
func preload(p *sim.Proc, c *cluster.Cluster, admin *cluster.Client, cfg RunConfig) ([]uint64, int64, error) {
	nFiles := cfg.Files
	if nFiles < 1 {
		nFiles = 1
	}
	sw := c.StripeWidth()
	perFile := cfg.FileBytes / int64(nFiles)
	if perFile < sw {
		perFile = sw
	}
	perFile = (perFile + sw - 1) / sw * sw
	inos := make([]uint64, nFiles)
	content := make([]byte, perFile)
	for f := 0; f < nFiles; f++ {
		rand.New(rand.NewSource(cfg.Seed + int64(f)*104729)).Read(content)
		ino, err := admin.Create(p, fmt.Sprintf("vol%d", f), perFile)
		if err != nil {
			return nil, 0, err
		}
		if err := admin.WriteFile(p, ino, content); err != nil {
			return nil, 0, err
		}
		inos[f] = ino
	}
	return inos, perFile, nil
}

// Run executes one trace replay and verifies the stripe-consistency
// invariant before returning.
func Run(cfg RunConfig) (*Result, error) {
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Env.Close()

	res := &Result{Cfg: cfg}
	admin := c.NewClient()
	var runErr error
	c.Env.Go("harness", func(p *sim.Proc) {
		if runErr = replay(p, c, admin, cfg, res); runErr != nil {
			return
		}
		// Merge all outstanding logs, then capture workload counters (so
		// every scheme is charged its full merge debt — the paper's Table 1
		// replays the trace to completion with logs persisted and recycled).
		if runErr = c.DrainAll(p, admin); runErr != nil {
			return
		}
		res.Device = c.DeviceStats()
		res.Net = c.Fabric.TotalStats()
		res.Residency = c.Residency()
		if !cfg.SkipVerify {
			n, err := c.Scrub()
			if err != nil {
				runErr = fmt.Errorf("post-run scrub failed: %w", err)
				return
			}
			res.Stripes = n
		}
	})
	c.Env.Run(0)
	if runErr != nil {
		return nil, runErr
	}
	if res.Elapsed > 0 {
		res.IOPS = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}

// RunRecovery replays the trace WITHOUT draining, then fails one OSD and
// measures recovery bandwidth including the forced log merge (Fig. 8b).
func RunRecovery(cfg RunConfig) (*cluster.RecoveryReport, error) {
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Env.Close()
	admin := c.NewClient()
	var runErr error
	var rep *cluster.RecoveryReport
	c.Env.Go("harness", func(p *sim.Proc) {
		res := &Result{Cfg: cfg}
		if runErr = replay(p, c, admin, cfg, res); runErr != nil {
			return
		}
		// Fail an OSD chosen deterministically; recovery drains first, per
		// the paper's consistency protocol.
		victim := wire.NodeID(cfg.Seed%int64(cfg.OSDs) + 1)
		rep, runErr = c.Recover(p, victim, 8, cluster.RecoverDrainFirst, admin)
		if runErr != nil {
			return
		}
		if !cfg.SkipVerify {
			if _, err := c.Scrub(); err != nil {
				runErr = fmt.Errorf("post-recovery scrub failed: %w", err)
			}
		}
	})
	c.Env.Run(0)
	if runErr != nil {
		return nil, runErr
	}
	return rep, nil
}

func replay(p *sim.Proc, c *cluster.Cluster, admin *cluster.Client, cfg RunConfig, res *Result) error {
	// Preload the file set through the normal encoded write path.
	inos, perFile, err := preload(p, c, admin, cfg)
	if err != nil {
		return err
	}
	c.ResetStats()

	// Payload source for updates: deterministic pseudo-random bytes.
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(cfg.Seed + 999)).Read(payload)

	start := p.Now()
	nClients := cfg.Clients
	if nClients < 1 {
		nClients = 1
	}
	opsPer := cfg.Ops / nClients
	if opsPer < 1 {
		opsPer = 1
	}
	wg := sim.NewWaitGroup(c.Env)
	wg.Add(nClients)
	var clientErr error
	done := 0
	var last time.Duration
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		cl := c.NewClient()
		ino := inos[ci%len(inos)]
		// Scope the generator's address space to the client's file.
		prof := cfg.Trace
		prof.WorkingSet = perFile
		gen := trace.MustGenerator(prof, cfg.Seed+int64(ci)*7919)
		c.Env.Go(fmt.Sprintf("client%d", ci), func(cp *sim.Proc) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				if cfg.MaxTime > 0 && cp.Now()-start >= cfg.MaxTime {
					return
				}
				op := gen.Next()
				off := op.Off
				if off+int64(op.Size) > perFile {
					off = perFile - int64(op.Size)
				}
				var err error
				if op.Kind == trace.Write {
					pstart := int(off) % (len(payload) - int(op.Size))
					err = cl.Update(cp, ino, off, payload[pstart:pstart+int(op.Size)])
				} else {
					_, err = cl.Read(cp, ino, off, int64(op.Size))
				}
				if err != nil {
					if clientErr == nil {
						clientErr = fmt.Errorf("client %d op %d: %w", ci, j, err)
					}
					return
				}
				done++
				t := cp.Now() - start
				res.Completions = append(res.Completions, t)
				if t > last {
					last = t
				}
			}
		})
	}
	wg.Wait(p)
	if clientErr != nil {
		return clientErr
	}
	res.Ops = done
	res.Elapsed = last
	res.PeakMem = c.PeakMemBytes()
	res.FinalMem = c.MemBytes()
	return nil
}
