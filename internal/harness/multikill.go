package harness

// The degraded multi-death experiment (beyond the paper's single-failure
// figures): open a degraded window, then chain further deaths INSIDE it —
// first a journal quorum holder, then the journal-holding surrogate — with
// acked degraded updates interleaved between the kills. It measures what
// the quorum-replicated journal design costs (replication messages/bytes
// per acked append) and what it buys (promotion + read-repair resolving
// every death without stranding an acked update), ending drained and
// scrubbed clean.

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// MultiKillResult captures one degraded multi-death run. It runs no
// writer fleet, so only Window.Stripes is set.
type MultiKillResult struct {
	Cfg RunConfig
	// Deaths is the number of nodes killed (1 = failed node only,
	// 2 = +surrogate, 3 = +quorum holder before the surrogate).
	Deaths int
	// Failed, Surr, Holder are the injected deaths (0 when the scenario's
	// death count does not reach that role).
	Failed, Surr, Holder wire.NodeID
	// Appends counts acked degraded updates across the append phases.
	Appends int
	// Kill is the surrogate-death report: journal promotions, read-repaired
	// items, missed heartbeats of the victim.
	Kill *cluster.KillReport
	// RecoverTotal sums recovery time across every dead node;
	// ReplayedItems counts journal records replayed at the cutovers.
	RecoverTotal  time.Duration
	ReplayedItems int
	Window
	QuorumTraffic
}

// RunDegradedMultiKill preloads and drains a volume, opens a degraded
// window for the most-loaded OSD, and drives acked degraded updates to its
// lost ranges while killing up to deaths-1 further nodes at fixed points:
// the first quorum holder of the busiest surrogate (deaths >= 3), then that
// surrogate itself (deaths >= 2). All dead nodes are then recovered —
// journal-less casualties first, the window owner's replay last — and the
// run ends with a drain and a full scrub.
func RunDegradedMultiKill(cfg RunConfig, deaths int) (*MultiKillResult, error) {
	if deaths < 1 || deaths > cfg.M {
		return nil, fmt.Errorf("harness: %d deaths exceed the RS(%d,%d) parity budget", deaths, cfg.K, cfg.M)
	}
	res := &MultiKillResult{Cfg: cfg, Deaths: deaths}
	err := runScenario(cfg, scenario{
		name:       "multikill",
		scriptOnly: true,
		drainFirst: true,
		script:     func(p *sim.Proc, r *scenarioRun) error { return res.chainKills(p, r, cfg) },
	}, &res.Window)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// chainKills is the multi-death script: open the degraded window, append,
// kill the holder and the surrogate between append phases, then recover
// every dead node.
func (res *MultiKillResult) chainKills(p *sim.Proc, r *scenarioRun, cfg RunConfig) error {
	c, admin := r.c, r.admin
	cl := c.NewClient()
	failed := mostLoaded(c, 0)
	if err := c.BeginDegraded(p, failed, admin); err != nil {
		return fmt.Errorf("begin degraded: %w", err)
	}
	res.Failed = failed

	// The failed node's lost DATA ranges — the offsets whose updates
	// route through the surrogate journals.
	sw := c.StripeWidth()
	ino := r.inos[0]
	var lost []int64
	for s := uint32(0); int64(s)*sw < r.perFile; s++ {
		osds := c.Placement(wire.StripeID{Ino: ino, Stripe: s})
		for idx := 0; idx < c.Cfg.K; idx++ {
			if osds[idx] == failed {
				lost = append(lost, int64(s)*sw+int64(idx)*cfg.BlockSize)
			}
		}
	}
	if len(lost) == 0 {
		return fmt.Errorf("most-loaded OSD %d holds no data blocks of vol0", failed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4243))
	span := int(cfg.BlockSize - 4096)
	phase := cfg.Ops / 12
	if phase < 20 {
		phase = 20
	}
	appends := func() error {
		buf := make([]byte, 4096)
		for i := 0; i < phase; i++ {
			rng.Read(buf)
			off := lost[rng.Intn(len(lost))] + int64(rng.Intn(span))
			if err := cl.Update(p, ino, off, buf); err != nil {
				return fmt.Errorf("degraded append %d: %w", i, err)
			}
			res.Appends++
		}
		return nil
	}
	if err := appends(); err != nil {
		return err
	}

	if res.Deaths >= 2 {
		// Busiest surrogate by journal bytes appended.
		var surr wire.NodeID
		var bmost int64 = -1
		jb := c.JournalBytesPerOSD()
		for _, s := range c.SurrogatesOf(failed) {
			if jb[s] > bmost {
				bmost, surr = jb[s], s
			}
		}
		if surr == 0 {
			return fmt.Errorf("no surrogate journaled anything after %d appends", res.Appends)
		}
		res.Surr = surr
		if res.Deaths >= 3 {
			holders := c.JournalHoldersOf(failed, surr)
			if len(holders) < 2 {
				return fmt.Errorf("surrogate %d has no holder quorum to kill from (%v)", surr, holders)
			}
			res.Holder = holders[0]
			if _, err := c.Kill(p, res.Holder, admin); err != nil {
				return fmt.Errorf("kill holder %d: %w", res.Holder, err)
			}
			if err := appends(); err != nil {
				return err
			}
		}
		krep, err := c.Kill(p, surr, admin)
		if err != nil {
			return fmt.Errorf("kill surrogate %d: %w", surr, err)
		}
		res.Kill = krep
		if err := appends(); err != nil {
			return err
		}
	}
	res.capture(c)

	// Journal-less casualties rebuild first; the window owner's cutover
	// replay runs last, onto fully-live stripes (the synchronous-parity
	// engines replay full engine writes across each stripe).
	for _, id := range []wire.NodeID{res.Holder, res.Surr, failed} {
		if id == 0 {
			continue
		}
		rep, err := c.Recover(p, id, 4, cluster.RecoverInterleaved, admin)
		if err != nil {
			return fmt.Errorf("recover %d: %w", id, err)
		}
		res.RecoverTotal += rep.TotalTime
		res.ReplayedItems += rep.ReplayedItems
	}
	return nil
}

// DegradedMultiKill runs the multi-death scenario across all six engines
// and every death count up to 3, reporting quorum replication traffic,
// promotion/read-repair work and total recovery time.
func DegradedMultiKill(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Degraded × multi-death: quorum journals under chained kills (SSD, RS(6,4)) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tdeaths\tappends\tq-sent msgs\tq-sent KB\tq-held msgs\tq-held KB\tpromoted\trepaired\treplayed\trecover(ms)\tstripes")
	for _, eng := range update.Names() {
		for _, m := range []int{1, 2, 3} {
			cfg := baseRun(s)
			cfg.Engine = eng
			cfg.Trace = s.traceProfile("ali")
			r, err := RunDegradedMultiKill(cfg, m)
			if err != nil {
				return fmt.Errorf("degraded-multikill %s m=%d: %w", eng, m, err)
			}
			promoted, repaired, missed := 0, 0, uint64(0)
			if r.Kill != nil {
				promoted, repaired, missed = r.Kill.PromotedJournals, r.Kill.RepairedItems, r.Kill.MissedBeats
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%d\t%.1f\t%d\t%d\t%d\t%.1f\t%d\n",
				eng, m, r.Appends,
				r.QuorumSentMsgs, float64(r.QuorumSentBytes)/1024,
				r.QuorumHeldMsgs, float64(r.QuorumHeldBytes)/1024,
				promoted, repaired, r.ReplayedItems, ms(r.RecoverTotal), r.Stripes)
			labels := map[string]string{"engine": eng, "deaths": fmt.Sprintf("%d", m)}
			s.Sink.Record("degraded-multikill", "appends", labels, float64(r.Appends))
			s.Sink.Record("degraded-multikill", "quorum_sent_msgs", labels, float64(r.QuorumSentMsgs))
			s.Sink.Record("degraded-multikill", "quorum_sent_bytes", labels, float64(r.QuorumSentBytes))
			s.Sink.Record("degraded-multikill", "quorum_held_msgs", labels, float64(r.QuorumHeldMsgs))
			s.Sink.Record("degraded-multikill", "quorum_held_bytes", labels, float64(r.QuorumHeldBytes))
			s.Sink.Record("degraded-multikill", "promoted_journals", labels, float64(promoted))
			s.Sink.Record("degraded-multikill", "repaired_items", labels, float64(repaired))
			s.Sink.Record("degraded-multikill", "missed_beats", labels, float64(missed))
			s.Sink.Record("degraded-multikill", "replayed_items", labels, float64(r.ReplayedItems))
			s.Sink.Record("degraded-multikill", "recover_ms", labels, ms(r.RecoverTotal))
		}
	}
	return tw.Flush()
}
