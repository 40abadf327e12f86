package harness

// The rebalance experiment (beyond the paper, after its ROADMAP item
// "placement epochs ... measure the resulting data movement against the
// minimal-remap bound"): run a multi-file foreground update workload, add
// one or more OSDs mid-run, and migrate online under the throttled
// rebalance engine. Reported per engine: blocks actually moved vs the
// minimal-remap lower bound, catch-up re-copies (raw bytes dirtied during
// the bulk copy), overlay records that followed their blocks (TSUE's
// log-follows-block cutover; in-place schemes drain instead and show up as
// re-copies and longer stalls), the per-PG cutover stall, and the
// foreground IOPS dip while the expansion runs — the migration-bandwidth
// cost Kermarrec et al. and the Facebook warehouse study identify as the
// dominant operational burden.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/rebalance"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// RebalanceResult captures one online-expansion run. Its Window is the
// expansion.
type RebalanceResult struct {
	Cfg RunConfig
	// Reports holds one migration report per added OSD (sequential
	// transitions).
	Reports []*rebalance.Report
	// NewOSDs lists the added node IDs.
	NewOSDs []wire.NodeID
	Window
}

// MovedBlocks sums blocks moved across all transitions.
func (r *RebalanceResult) MovedBlocks() int {
	n := 0
	for _, rep := range r.Reports {
		n += rep.MovedBlocks
	}
	return n
}

// BoundBlocks sums the per-transition minimal-remap bounds.
func (r *RebalanceResult) BoundBlocks() float64 {
	var b float64
	for _, rep := range r.Reports {
		b += rep.BoundBlocks
	}
	return b
}

// RunRebalance preloads a multi-file working set, runs a continuous
// foreground update workload, and a third of the way through adds addOSDs
// OSDs one after another, each with a full online migration under rcfg.
// The run ends with a drain and a full scrub.
func RunRebalance(cfg RunConfig, rcfg rebalance.Config, addOSDs int) (*RebalanceResult, error) {
	if addOSDs < 1 {
		return nil, fmt.Errorf("harness: addOSDs must be >= 1, got %d", addOSDs)
	}
	res := &RebalanceResult{Cfg: cfg}
	err := runScenario(cfg, scenario{
		name:        "rebalance",
		payloadSeed: 999,
		script: func(p *sim.Proc, r *scenarioRun) error {
			for i := 0; i < addOSDs; i++ {
				rep, id, err := r.c.Expand(p, r.admin, rcfg)
				if err != nil {
					return fmt.Errorf("expand %d: %w", i, err)
				}
				res.Reports = append(res.Reports, rep)
				res.NewOSDs = append(res.NewOSDs, id)
			}
			return nil
		},
	}, &res.Window)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RebalanceKillResult captures one kill-during-rebalance run: an OSD dies
// mid-migration, the transition resolves per PG (abort/finish), recovery
// runs under the settled epoch, and the run ends verified. Its Window spans
// the expansion and the recovery.
type RebalanceKillResult struct {
	Cfg    RunConfig
	Report *rebalance.Report
	// Victim is the killed OSD (a migration source); SettledEpoch is where
	// the transition committed after per-PG resolution.
	Victim       wire.NodeID
	SettledEpoch uint64
	Recovery     *cluster.RecoveryReport
	Window
	// QuorumTraffic covers the recovery's degraded window.
	QuorumTraffic
}

// RunRebalanceKill preloads a working set, expands online under a
// foreground update workload, kills a migration-source OSD after the
// first PG's copies begin (via the transition hook, so the injection
// point is deterministic), waits for the per-PG resolution, recovers the
// node under the settled epoch, and verifies with a drain + scrub.
func RunRebalanceKill(cfg RunConfig, rcfg rebalance.Config) (*RebalanceKillResult, error) {
	res := &RebalanceKillResult{Cfg: cfg}
	err := runScenario(cfg, scenario{
		name:        "rebalance-kill",
		payloadSeed: 4242,
		script: func(p *sim.Proc, r *scenarioRun) error {
			c := r.c
			// Arm the kill: the first PG to finish its first copy loses its
			// move source.
			c.SetTransHook(func(ev cluster.TransEvent) {
				if res.Victim != 0 || ev.Stage != cluster.StageCopying || ev.Copied == 0 {
					return
				}
				res.Victim = ev.Moves[0].From
				c.MarkDead(res.Victim)
			})
			rep, _, err := c.Expand(p, r.admin, rcfg)
			if err != nil {
				return fmt.Errorf("expand: %w", err)
			}
			if res.Victim == 0 {
				return fmt.Errorf("kill hook never fired (no moves?)")
			}
			res.Report = rep
			res.SettledEpoch = c.MDS.CommittedEpoch()
			if res.Recovery, err = c.Recover(p, res.Victim, 4, cluster.RecoverInterleaved, r.admin); err != nil {
				return fmt.Errorf("recover after mid-rebalance kill: %w", err)
			}
			res.capture(c)
			return nil
		},
	}, &res.Window)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RebalanceKill runs the kill-during-rebalance composition across all six
// engines: an OSD dies after the first PG's bulk copy begins, the
// transition resolves (per-PG abort/finish outcomes), the node recovers
// under the settled epoch, and the run ends scrubbed clean.
func RebalanceKill(w io.Writer, s Scale) error {
	fmt.Fprintf(w, "== Rebalance × failure: kill a copy source mid-expansion (+1 OSD, SSD, Ali-Cloud, RS(6,4), %d files) ==\n", s.Files)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// "rec items/KB" are the recovery cutover's journal replays (seeds +
	// degraded updates + any transition-orphaned records).
	fmt.Fprintln(tw, "engine\tpgs\taborted\tfinished\treconstructed\taborted MB\tmoved MB\trestored\trec items\trebuilt blks\trec KB\trecovery(ms)")
	for _, eng := range update.Names() {
		cfg := baseRun(s)
		cfg.Engine = eng
		cfg.Clients = 8
		cfg.Files = s.Files
		cfg.PGs = 64
		cfg.BlockSize = 256 << 10
		cfg.Trace = s.traceProfile("ali")
		rcfg := rebalance.Config{RateBps: s.RebalanceRateBps, MaxInFlightPGs: 2}
		r, err := RunRebalanceKill(cfg, rcfg)
		if err != nil {
			return fmt.Errorf("rebalance-kill %s: %w", eng, err)
		}
		rep := r.Report
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%d\t%d\t%d\t%d\t%.1f\n",
			eng, len(rep.Outcomes), rep.AbortedPGs, rep.FinishedPGs, rep.ReconstructedBlocks,
			float64(rep.AbortedBytes)/(1<<20), float64(rep.MovedBytes)/(1<<20),
			restoredItems(rep), r.Recovery.ReplayedItems, r.Recovery.Blocks,
			int(r.Recovery.ReplayedBytes>>10), ms(r.Recovery.TotalTime))
		labels := map[string]string{"engine": eng}
		s.Sink.Record("rebalance-kill", "pgs", labels, float64(len(rep.Outcomes)))
		s.Sink.Record("rebalance-kill", "aborted_pgs", labels, float64(rep.AbortedPGs))
		s.Sink.Record("rebalance-kill", "finished_pgs", labels, float64(rep.FinishedPGs))
		s.Sink.Record("rebalance-kill", "reconstructed_blocks", labels, float64(rep.ReconstructedBlocks))
		s.Sink.Record("rebalance-kill", "aborted_bytes", labels, float64(rep.AbortedBytes))
		s.Sink.Record("rebalance-kill", "moved_bytes", labels, float64(rep.MovedBytes))
		s.Sink.Record("rebalance-kill", "recovery_ms", labels, ms(r.Recovery.TotalTime))
		s.Sink.Record("rebalance-kill", "recovery_replayed_items", labels, float64(r.Recovery.ReplayedItems))
		s.Sink.Record("rebalance-kill", "journal_quorum_sent_msgs", labels, float64(r.QuorumSentMsgs))
		s.Sink.Record("rebalance-kill", "journal_quorum_sent_bytes", labels, float64(r.QuorumSentBytes))
		s.Sink.Record("rebalance-kill", "journal_quorum_held_bytes", labels, float64(r.QuorumHeldBytes))
	}
	return tw.Flush()
}

// restoredItems sums abort-path restores across a report's PG outcomes.
func restoredItems(rep *rebalance.Report) int {
	n := 0
	for _, res := range rep.Outcomes {
		n += res.RestoredItems
	}
	return n
}

// Rebalance runs the online-expansion experiment across all six engines:
// data moved vs the minimal-remap bound, the foreground IOPS dip during
// the expansion, and the cutover stall profile.
func Rebalance(w io.Writer, s Scale) error {
	rate := "unthrottled"
	if s.RebalanceRateBps > 0 {
		rate = fmt.Sprintf("%dMB/s", s.RebalanceRateBps>>20)
	}
	fmt.Fprintf(w, "== Rebalance: online expansion (+%d OSD, copy rate %s, SSD, Ali-Cloud, RS(6,4), %d files) ==\n",
		s.AddOSDs, rate, s.Files)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tmoved blks\tbound\tx bound\tmoved MB\trecopied\treplayed KB\tpgs\tmigrate(ms)\tstall(ms)\tmax stall(ms)\tbase IOPS\tduring IOPS\tdip")
	for _, eng := range update.Names() {
		cfg := baseRun(s)
		cfg.Engine = eng
		cfg.Clients = 16
		cfg.Files = s.Files
		cfg.PGs = 64
		// Smaller blocks -> more stripes, so per-PG moves and the bound are
		// well populated (same reasoning as the placement experiment).
		cfg.BlockSize = 256 << 10
		cfg.Trace = s.traceProfile("ali")
		rcfg := rebalance.Config{RateBps: s.RebalanceRateBps, MaxInFlightPGs: 2}
		r, err := RunRebalance(cfg, rcfg, s.AddOSDs)
		if err != nil {
			return fmt.Errorf("rebalance %s: %w", eng, err)
		}
		var movedMB float64
		var recopied, replayedKB, pgs int
		var migrate, stall, maxStall time.Duration
		for _, rep := range r.Reports {
			movedMB += float64(rep.MovedBytes) / (1 << 20)
			recopied += rep.RecopiedBlocks
			replayedKB += int(rep.ReplayedBytes >> 10)
			pgs += rep.PGsMigrated
			migrate += rep.MigrateTime
			stall += rep.StallTime
			if rep.MaxStall > maxStall {
				maxStall = rep.MaxStall
			}
		}
		moved, bound := r.MovedBlocks(), r.BoundBlocks()
		ratio := 0.0
		if bound > 0 {
			ratio = float64(moved) / bound
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.2fx\t%.1f\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f%%\n",
			eng, moved, bound, ratio, movedMB, recopied, replayedKB, pgs,
			ms(migrate), ms(stall), ms(maxStall),
			r.BaselineIOPS, r.DuringIOPS, r.DipPct)
		labels := map[string]string{"engine": eng}
		s.Sink.Record("rebalance", "moved_blocks", labels, float64(moved))
		s.Sink.Record("rebalance", "bound_blocks", labels, bound)
		s.Sink.Record("rebalance", "actual_over_bound", labels, ratio)
		s.Sink.Record("rebalance", "recopied_blocks", labels, float64(recopied))
		s.Sink.Record("rebalance", "replayed_kb", labels, float64(replayedKB))
		s.Sink.Record("rebalance", "migrate_ms", labels, ms(migrate))
		s.Sink.Record("rebalance", "stall_ms_total", labels, ms(stall))
		s.Sink.Record("rebalance", "stall_ms_max", labels, ms(maxStall))
		s.Sink.Record("rebalance", "base_iops", labels, r.BaselineIOPS)
		s.Sink.Record("rebalance", "during_iops", labels, r.DuringIOPS)
		s.Sink.Record("rebalance", "dip_pct", labels, r.DipPct)
	}
	return tw.Flush()
}
