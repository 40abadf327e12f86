package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tsue/internal/device"
	"tsue/internal/trace"
	"tsue/internal/update"
)

// Scale controls experiment size so the full suite runs from quick CI
// benchmarks up to paper-scale replays.
type Scale struct {
	Ops       int
	FileMB    int64
	Clients   []int // client counts swept in Fig. 5
	RSConfigs [][2]int
	// PGCounts is the placement-group sweep of the placement experiment;
	// Files is its multi-file working-set split.
	PGCounts []int
	Files    int
	// AddOSDs is how many OSDs the rebalance experiment adds (sequential
	// online transitions); RebalanceRateBps throttles its block copies
	// (0 = unthrottled).
	AddOSDs          int
	RebalanceRateBps int64
	// TraceSample, when > 0, turns on end-to-end tracing for every run the
	// experiments launch (RunConfig.TraceSample): every n-th foreground op
	// is traced. Tracing is zero-perturbation — span context rides every
	// wire message whether sampled or not — so measured results are
	// unchanged. The obs experiment forces 1 regardless.
	TraceSample int
	// Sink, when non-nil, collects machine-readable metrics alongside the
	// human tables (tsuebench -json writes them to BENCH_*.json).
	Sink *Sink
}

// QuickScale finishes the whole suite in minutes (bench default).
func QuickScale() Scale {
	return Scale{
		Ops:              3000,
		FileMB:           24,
		Clients:          []int{4, 16, 64},
		RSConfigs:        [][2]int{{6, 2}, {6, 4}},
		PGCounts:         []int{2, 16, 128},
		Files:            8,
		AddOSDs:          1,
		RebalanceRateBps: 64 << 20,
	}
}

// FullScale mirrors the paper's grid (minus absolute trace length).
func FullScale() Scale {
	return Scale{
		Ops:              20000,
		FileMB:           96,
		Clients:          []int{4, 8, 16, 32, 64},
		RSConfigs:        [][2]int{{6, 2}, {12, 2}, {6, 3}, {12, 3}, {6, 4}, {12, 4}},
		PGCounts:         []int{4, 32, 256, 1024},
		Files:            16,
		AddOSDs:          2,
		RebalanceRateBps: 256 << 20,
	}
}

func (s Scale) traceProfile(name string) trace.Profile {
	ws := s.FileMB << 20
	switch name {
	case "ali":
		return trace.AliCloud(ws)
	case "ten":
		return trace.TenCloud(ws)
	default:
		p, err := trace.MSR(name, ws)
		if err != nil {
			panic(err)
		}
		return p
	}
}

func baseRun(s Scale) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Ops = s.Ops
	cfg.FileBytes = s.FileMB << 20
	cfg.TraceSample = s.TraceSample
	return cfg
}

// Fig5 regenerates Fig. 5 (a)-(l): aggregate update IOPS on the SSD cluster
// for every RS config x trace x client count x engine.
func Fig5(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 5: update throughput, SSD cluster, 16 nodes, 25Gb/s ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rs\ttrace\tclients\t%s\t%s\t%s\t%s\t%s\t%s\ttsue/pl\ttsue/best-other\n",
		"fo", "pl", "plr", "parix", "cord", "tsue")
	for _, rsCfg := range s.RSConfigs {
		for _, tr := range []string{"ali", "ten"} {
			for _, nc := range s.Clients {
				iops := map[string]float64{}
				for _, eng := range update.Names() {
					cfg := baseRun(s)
					cfg.Engine = eng
					cfg.K, cfg.M = rsCfg[0], rsCfg[1]
					cfg.Clients = nc
					cfg.Trace = s.traceProfile(tr)
					r, err := Run(cfg)
					if err != nil {
						return fmt.Errorf("fig5 %s rs(%d,%d) %s c=%d: %w", eng, rsCfg[0], rsCfg[1], tr, nc, err)
					}
					iops[eng] = r.IOPS
					s.Sink.Record("fig5", "iops", map[string]string{
						"engine": eng, "rs": fmt.Sprintf("%d_%d", rsCfg[0], rsCfg[1]),
						"trace": tr, "clients": fmt.Sprintf("%d", nc),
					}, r.IOPS)
				}
				best := 0.0
				for _, eng := range update.Names() {
					if eng != "tsue" && iops[eng] > best {
						best = iops[eng]
					}
				}
				fmt.Fprintf(tw, "RS(%d,%d)\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2fx\t%.2fx\n",
					rsCfg[0], rsCfg[1], tr, nc,
					iops["fo"], iops["pl"], iops["plr"], iops["parix"], iops["cord"], iops["tsue"],
					ratio(iops["tsue"], iops["pl"]), ratio(iops["tsue"], best))
			}
		}
	}
	return tw.Flush()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig6a regenerates Fig. 6a: TSUE aggregate IOPS over time, showing that
// recycle overhead is invisible with >= 4 log units but throttles appends
// with only 2.
func Fig6a(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 6a: recycle overhead during updates (IOPS timeline) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, units := range []int{2, 4, 8} {
		cfg := baseRun(s)
		cfg.Engine = "tsue"
		cfg.Clients = 32
		cfg.Trace = s.traceProfile("ali")
		cfg.Opts.MaxUnits = units
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("fig6a units=%d: %w", units, err)
		}
		fmt.Fprintf(tw, "maxUnits=%d\tIOPS=%.0f\t", units, r.IOPS)
		for _, v := range r.Timeline(10) {
			fmt.Fprintf(tw, "%.0f\t", v)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig6b regenerates Fig. 6b: update IOPS and peak log memory as the unit
// quota per pool sweeps 2..20.
func Fig6b(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 6b: memory usage vs number of log units ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "maxUnits\tIOPS\tpeakLogMem(MB)\tmem% (of 16x1GB quota)")
	for _, units := range []int{2, 4, 6, 8, 12, 16, 20} {
		cfg := baseRun(s)
		cfg.Engine = "tsue"
		cfg.Clients = 32
		cfg.Trace = s.traceProfile("ali")
		cfg.Opts.MaxUnits = units
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("fig6b units=%d: %w", units, err)
		}
		quota := float64(16 << 30) // paper: <=1 GB per SSD across 16 nodes
		fmt.Fprintf(tw, "%d\t%.0f\t%.1f\t%.3f%%\n", units, r.IOPS,
			float64(r.PeakMem)/(1<<20), 100*float64(r.PeakMem)/quota)
	}
	return tw.Flush()
}

// fig7Step describes one cumulative optimization of the breakdown.
type fig7Step struct {
	name  string
	apply func(o *update.Options)
}

func fig7Steps() []fig7Step {
	return []fig7Step{
		{"baseline", func(o *update.Options) {
			o.UseDeltaLog = false
			o.DataLocality = false
			o.ParityLocality = false
			o.UseLogPool = false
			o.Pools = 1
		}},
		{"O1 +data locality", func(o *update.Options) { o.DataLocality = true }},
		{"O2 +parity locality", func(o *update.Options) { o.ParityLocality = true }},
		{"O3 +log pool", func(o *update.Options) { o.UseLogPool = true }},
		{"O4 +4 pools", func(o *update.Options) { o.Pools = 4 }},
		{"O5 +delta log", func(o *update.Options) { o.UseDeltaLog = true }},
	}
}

// Fig7 regenerates Fig. 7: the contribution breakdown — cumulative TSUE
// optimizations O1..O5 over the two-log baseline, per trace and RS config.
func Fig7(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 7: breakdown of update throughput (cumulative O1..O5) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "trace/rs\t")
	for _, st := range fig7Steps() {
		fmt.Fprintf(tw, "%s\t", st.name)
	}
	fmt.Fprintln(tw)
	rsSet := [][2]int{{6, 2}, {6, 3}, {6, 4}}
	for _, tr := range []string{"ali", "ten"} {
		for _, rsCfg := range rsSet {
			fmt.Fprintf(tw, "%s RS(%d,%d)\t", tr, rsCfg[0], rsCfg[1])
			opts := baseRun(s).Opts
			for i, st := range fig7Steps() {
				_ = i
				st.apply(&opts)
				cfg := baseRun(s)
				cfg.Engine = "tsue"
				cfg.K, cfg.M = rsCfg[0], rsCfg[1]
				cfg.Clients = 32
				cfg.Trace = s.traceProfile(tr)
				cfg.Opts = opts
				r, err := Run(cfg)
				if err != nil {
					return fmt.Errorf("fig7 %s %s: %w", tr, st.name, err)
				}
				fmt.Fprintf(tw, "%.0f\t", r.IOPS)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// Table1 regenerates Table 1: storage workload and network traffic per
// engine replaying Ten-Cloud under RS(6,4), plus the SSD-wear columns
// backing the paper's lifespan claim.
func Table1(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4)) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tR/W ops\tR/W vol(MB)\toverwrites\tovw vol(MB)\tnet(MB)\tNAND writes(MB)\terases\tlifespan vs tsue")
	type row struct {
		name   string
		dev    device.Stats
		netB   int64
		erases int64
	}
	var rows []row
	for _, eng := range update.Names() {
		cfg := baseRun(s)
		cfg.Engine = eng
		cfg.K, cfg.M = 6, 4
		cfg.Clients = 32
		cfg.Trace = s.traceProfile("ten")
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", eng, err)
		}
		rows = append(rows, row{name: eng, dev: r.Device, netB: r.Net.BytesSent, erases: r.Device.Erases})
	}
	var tsueNand int64
	for _, r := range rows {
		if r.name == "tsue" {
			tsueNand = r.dev.NandWriteBytes
		}
	}
	for _, r := range rows {
		// Wear is NAND bytes actually programmed (host + RMW + GC); the
		// relative lifespan is its inverse ratio.
		life := "1.00x"
		if tsueNand > 0 {
			life = fmt.Sprintf("%.2fx", float64(r.dev.NandWriteBytes)/float64(tsueNand))
		}
		d := r.dev
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%.0f\t%.0f\t%.0f\t%d\t%s\n",
			r.name,
			d.ReadOps+d.WriteOps,
			float64(d.ReadBytes+d.WriteBytes)/(1<<20),
			d.OverwriteOps,
			float64(d.OverwriteBytes)/(1<<20),
			float64(r.netB)/(1<<20),
			float64(d.NandWriteBytes)/(1<<20),
			r.erases,
			life)
	}
	return tw.Flush()
}

// Table2 regenerates Table 2: mean time updated data resides in each log
// layer (append / buffer / recycle) under RS(12,4).
func Table2(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Table 2: time (us) data resides in memory, RS(12,4) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trace\tlayer\tappend(us)\tbuffer(us)\trecycle(us)\ttotal(us)")
	for _, tr := range []string{"ali", "ten"} {
		cfg := baseRun(s)
		cfg.Engine = "tsue"
		cfg.K, cfg.M = 12, 4
		cfg.Clients = 32
		cfg.Trace = s.traceProfile(tr)
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("table2 %s: %w", tr, err)
		}
		var total time.Duration
		for _, layer := range []string{"data", "delta", "parity"} {
			st, ok := r.Residency[layer]
			if !ok {
				continue
			}
			total += st.MeanAppend() + st.MeanBuffer() + st.MeanRecycle()
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t\n", tr, layer,
				st.MeanAppend().Microseconds(), st.MeanBuffer().Microseconds(), st.MeanRecycle().Microseconds())
		}
		fmt.Fprintf(tw, "%s\tTOTAL\t\t\t\t%d\n", tr, total.Microseconds())
	}
	return tw.Flush()
}

// hddEngines is the Fig. 8 comparison set (the paper omits CoRD on HDDs).
func hddEngines() []string { return []string{"fo", "pl", "plr", "parix", "tsue"} }

func hddRun(s Scale, vol, eng string, unitSize int64) RunConfig {
	cfg := baseRun(s)
	cfg.Engine = eng
	cfg.K, cfg.M = 6, 4
	cfg.Clients = 16
	cfg.Device = device.HDD
	cfg.Trace = s.traceProfile(vol)
	// Paper §5.4: on HDDs, DeltaLogs are disabled, the DataLog keeps 3
	// copies, and each HDD gets one log pool. The unit size maps the
	// paper's 16 MiB-unit steady state onto a seconds-long run: Fig. 8a
	// (sustained update throughput) uses units large relative to the replay
	// so recycling is amortized as at paper scale, while Fig. 8b (recovery
	// after updates stop) uses small units so the log residual at stop is
	// proportionally as small as after the paper's 3-minute runs.
	cfg.Opts.UseDeltaLog = false
	cfg.Opts.Copies = 3
	cfg.Opts.UnitSize = unitSize
	cfg.Opts.CordBufferSize = unitSize
	cfg.Opts.Pools = 1 // paper: one log pool per HDD device
	// HDD runs are slow per-op; keep the op count proportionate.
	cfg.Ops = s.Ops / 4
	if cfg.Ops < 500 {
		cfg.Ops = 500
	}
	return cfg
}

// Fig8a regenerates Fig. 8a: HDD-cluster update throughput per MSR volume.
func Fig8a(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 8a: update throughput with HDDs (MSR volumes, RS(6,4)) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "volume\tfo\tpl\tplr\tparix\ttsue\ttsue/parix")
	for _, vol := range trace.MSRVolumes() {
		iops := map[string]float64{}
		for _, eng := range hddEngines() {
			r, err := Run(hddRun(s, vol, eng, 1<<20))
			if err != nil {
				return fmt.Errorf("fig8a %s %s: %w", vol, eng, err)
			}
			iops[eng] = r.IOPS
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2fx\n",
			vol, iops["fo"], iops["pl"], iops["plr"], iops["parix"], iops["tsue"],
			ratio(iops["tsue"], iops["parix"]))
	}
	return tw.Flush()
}

// Fig8b regenerates Fig. 8b: recovery bandwidth after an update run on the
// HDD cluster. Recovery must merge outstanding logs first (the paper's
// consistency requirement), so lazy-log schemes pay their deferred debt
// here while TSUE's real-time recycle leaves recovery nearly log-free.
func Fig8b(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 8b: recovery bandwidth with HDDs (MSR volumes, RS(6,4)) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "volume\tfo(MB/s)\tpl\tplr\tparix\ttsue\ttsue/pl")
	for _, vol := range trace.MSRVolumes() {
		bw := map[string]float64{}
		for _, eng := range hddEngines() {
			r, err := RunRecovery(hddRun(s, vol, eng, 64<<10))
			if err != nil {
				return fmt.Errorf("fig8b %s %s: %w", vol, eng, err)
			}
			bw[eng] = r.BandwidthBps / (1 << 20)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2fx\n",
			vol, bw["fo"], bw["pl"], bw["plr"], bw["parix"], bw["tsue"],
			ratio(bw["tsue"], bw["pl"]))
	}
	return tw.Flush()
}

// Sweep regenerates the batched-recycle sweep (beyond the paper): TSUE
// update IOPS, device work and recycle timing as the per-pool recycler
// batch size varies. Batching merges extents across sealed units before
// the single read-modify-write, so the interesting columns are the
// overwrite ops actually reaching the device and the mean per-extent
// recycle time.
func Sweep(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Sweep: recycler batch size (TSUE, SSD, Ali-Cloud, RS(6,4)) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "batch\tIOPS\tovw ops\tovw vol(MB)\tnet(MB)\tpeakLogMem(MB)\trecycle(us)")
	for _, batch := range []int{1, 2, 4, 8} {
		cfg := baseRun(s)
		cfg.Engine = "tsue"
		cfg.Clients = 32
		cfg.Trace = s.traceProfile("ali")
		cfg.Opts.RecycleBatch = batch
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("sweep batch=%d: %w", batch, err)
		}
		// True per-extent mean across all three layers (comparable to
		// Table 2's per-layer recycle columns).
		var recTime time.Duration
		var recN int64
		for _, st := range r.Residency {
			recTime += st.RecycleTime
			recN += st.RecycleN
		}
		var rec time.Duration
		if recN > 0 {
			rec = recTime / time.Duration(recN)
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.1f\t%.1f\t%.1f\t%d\n",
			batch, r.IOPS,
			r.Device.OverwriteOps, float64(r.Device.OverwriteBytes)/(1<<20),
			float64(r.Net.BytesSent)/(1<<20),
			float64(r.PeakMem)/(1<<20),
			rec.Microseconds())
	}
	return tw.Flush()
}

// All runs every experiment in paper order.
func All(w io.Writer, s Scale) error {
	steps := []func(io.Writer, Scale) error{Fig5, Fig6a, Fig6b, Fig7, Table1, Table2, Fig8a, Fig8b, Sweep, Degraded, Placement, Rebalance}
	for _, f := range steps {
		if err := f(w, s); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Experiments maps CLI names to experiment functions.
func Experiments() map[string]func(io.Writer, Scale) error {
	return map[string]func(io.Writer, Scale) error{
		"fig5": Fig5, "fig6a": Fig6a, "fig6b": Fig6b, "fig7": Fig7,
		"table1": Table1, "table2": Table2, "fig8a": Fig8a, "fig8b": Fig8b,
		"sweep": Sweep, "degraded": Degraded, "placement": Placement,
		"rebalance": Rebalance, "rebalance-kill": RebalanceKill,
		"degraded-multikill": DegradedMultiKill, "chaos": Chaos,
		"saturation": Saturation, "obs": Obs, "all": All,
	}
}
