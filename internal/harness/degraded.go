package harness

// The degraded experiment (beyond the paper's figures, after its §4.2
// recovery discussion and Fig. 8b): fail an OSD *while* a foreground update
// workload is running and recover it under each protocol, measuring how
// long recovery takes, how far foreground IOPS dip while it runs — the
// Rashmi et al. observation that recovery traffic competes with foreground
// I/O on the same NICs — and how many bytes each scheme must replay from
// replicated logs.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// DegradedResult captures one degraded-mode recovery run. Its Window is
// the recovery: it opens at the failure and closes when recovery completes.
type DegradedResult struct {
	Cfg RunConfig
	// Mode is the recovery protocol used.
	Mode cluster.RecoverMode
	// Report is the cluster's recovery report (rebuild/settle/replay times,
	// replayed bytes, reconstruction bandwidth).
	Report *cluster.RecoveryReport
	// JournalBytes is surrogate-journal bytes appended per OSD during the
	// degraded window (the placement experiment's surrogate-load spread).
	JournalBytes map[wire.NodeID]int64
	Window
	QuorumTraffic
}

// RunDegraded preloads a volume, runs a continuous foreground update
// workload with reader probes, fails the most-loaded OSD a third of the way
// through, and recovers it under the given mode while the workload keeps
// issuing updates (which block at the gate or route through the surrogate
// journal, depending on the mode). The run ends with a drain and a full
// scrub.
func RunDegraded(cfg RunConfig, mode cluster.RecoverMode) (*DegradedResult, error) {
	res := &DegradedResult{Cfg: cfg, Mode: mode}
	err := runScenario(cfg, scenario{
		name:        "degraded",
		payloadSeed: 999,
		readersPer:  4,
		minReaders:  2,
		readerGap:   500 * time.Microsecond,
		script: func(p *sim.Proc, r *scenarioRun) (err error) {
			res.Report, err = r.c.Recover(p, mostLoaded(r.c, 0), 8, mode, r.admin)
			if err != nil {
				return fmt.Errorf("recover (%s): %w", mode, err)
			}
			return nil
		},
		after: func(p *sim.Proc, r *scenarioRun) error {
			res.JournalBytes = r.c.JournalBytesPerOSD()
			res.capture(r.c)
			return nil
		},
	}, &res.Window)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// degradedModes is the experiment's protocol sweep.
func degradedModes() []cluster.RecoverMode {
	return []cluster.RecoverMode{
		cluster.RecoverDrainFirst,
		cluster.RecoverLogReplay,
		cluster.RecoverInterleaved,
	}
}

// Degraded runs the degraded-mode recovery experiment: every trace × every
// engine × every recovery protocol under a continuous foreground update
// load plus reader probes, reporting recovery time, the foreground IOPS
// dip, replayed log bytes, AND the per-trace degraded-read latency
// percentiles (p50/p95/p99 of reads issued inside the recovery window) —
// the Fig. 8b comparison extended with the update/failure overlap the
// paper's log-reliability argument is really about, completed with the
// ROADMAP's trace-latency distribution item.
func Degraded(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Degraded: recovery under foreground load (SSD, RS(6,4)); window read latency p50/p95/p99 ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trace\tengine\tmode\trecover(ms)\tbarrier(ms)\trebuild(ms)\treplay(ms)\tgated(ms)\treplayed(KB)\trebuild(MB/s)\tbase IOPS\tduring IOPS\tdip\trd p50(ms)\trd p95(ms)\trd p99(ms)\trd err")
	for _, tr := range []string{"ali", "ten"} {
		for _, eng := range update.Names() {
			for _, mode := range degradedModes() {
				cfg := baseRun(s)
				cfg.Engine = eng
				cfg.Clients = 16
				cfg.Trace = s.traceProfile(tr)
				r, err := RunDegraded(cfg, mode)
				if err != nil {
					return fmt.Errorf("degraded %s %s %s: %w", tr, eng, mode, err)
				}
				rep := r.Report
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f%%\t%.2f\t%.2f\t%.2f\t%d\n",
					tr, eng, mode,
					ms(rep.TotalTime), ms(rep.DrainTime), ms(rep.RebuildTime), ms(rep.ReplayTime), ms(rep.GatedTime),
					float64(rep.ReplayedBytes)/1024,
					rep.BandwidthBps/(1<<20),
					r.BaselineIOPS, r.DuringIOPS, r.DipPct,
					ms(r.ReadP(0.50)), ms(r.ReadP(0.95)), ms(r.ReadP(0.99)), r.ReadErrs)
				labels := map[string]string{"trace": tr, "engine": eng, "mode": mode.String()}
				s.Sink.Record("degraded", "recover_ms", labels, ms(rep.TotalTime))
				s.Sink.Record("degraded", "dip_pct", labels, r.DipPct)
				s.Sink.Record("degraded", "read_p50_ms", labels, ms(r.ReadP(0.50)))
				s.Sink.Record("degraded", "read_p95_ms", labels, ms(r.ReadP(0.95)))
				s.Sink.Record("degraded", "read_p99_ms", labels, ms(r.ReadP(0.99)))
				s.Sink.Record("degraded", "read_errs", labels, float64(r.ReadErrs))
				s.Sink.Record("degraded", "journal_quorum_sent_msgs", labels, float64(r.QuorumSentMsgs))
				s.Sink.Record("degraded", "journal_quorum_sent_bytes", labels, float64(r.QuorumSentBytes))
				s.Sink.Record("degraded", "journal_quorum_held_bytes", labels, float64(r.QuorumHeldBytes))
			}
		}
	}
	return tw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
