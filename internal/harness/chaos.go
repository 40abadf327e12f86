package harness

// The chaos experiment: the same foreground update + reader-probe workload
// as the degraded experiment, but with the netsim fault fabric armed —
// stragglers, asymmetric partitions, flapping OSDs, in-flight payload
// corruption — measuring the window read-latency tail (p50/p95/p99) each
// engine exposes under each fault, plus the hedged-read and checksum
// counters that prove the mitigation machinery ran. The straggler and
// baseline scenarios kill and recover an OSD (RecoverInterleaved, so
// degraded reads reconstruct on the fly and hedging has a primary leg to
// race); the live-fault scenarios (partition, flap, corrupt) keep the
// cluster whole and bound the fault to a virtual-time window.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// Chaos scenario names. Order matters to the driver: baseline runs before
// straggler so the p99 degradation ratio can be computed in one pass.
const (
	ChaosBaseline  = "baseline"  // kill + interleaved recovery, no added fault
	ChaosStraggler = "straggler" // kill + recovery with one lognormal-slow survivor, hedging armed
	ChaosPartition = "partition" // asymmetric client→OSD cuts for a window, then heal
	ChaosFlap      = "flap"      // one OSD flaps down/up; tears scrubbed after heal
	ChaosCorrupt   = "corrupt"   // every Nth checksum-bearing payload flipped in flight
)

// ChaosScenarios lists the scenarios in driver order.
func ChaosScenarios() []string {
	return []string{ChaosBaseline, ChaosStraggler, ChaosPartition, ChaosFlap, ChaosCorrupt}
}

// chaosHedgeDelay arms hedged degraded reads for the kill scenarios: well
// above a healthy small-range reconstruction (device read + one RTT), well
// below the straggler's median, so the hedge stays quiet on the baseline
// and wins under the straggler.
const chaosHedgeDelay = time.Millisecond

// chaosStragglerDist is the straggler's service-time distribution — the
// lognormal tail the hedging literature models, not a deterministic stall
// (the chaos grid tests pin the deterministic case).
func chaosStragglerDist() netsim.Dist {
	return netsim.Lognormal{Median: 5 * time.Millisecond, Sigma: 0.6}
}

// chaosCorruptRate flips one in this many eligible (checksum-bearing,
// data-carrying) payloads during the corrupt window — low enough that even
// a small-scale run injects a handful, high enough that the retry storm
// stays a perturbation rather than the workload.
const chaosCorruptRate = 31

// ChaosResult captures one chaos run. Its Window is the fault window.
type ChaosResult struct {
	Cfg      RunConfig
	Scenario string
	// Report is the recovery report for the kill scenarios; nil for the
	// live-fault scenarios (partition, flap, corrupt), which never kill.
	Report *cluster.RecoveryReport
	// HedgeFired/HedgeWins aggregate the hedged-read counters across OSDs.
	HedgeFired, HedgeWins int64
	// CorruptInjected is what the fabric flipped; CorruptDetected what the
	// checksum verify points caught. The run fails if any escape.
	CorruptInjected, CorruptDetected int64
	// RepairedBlocks counts blocks ScrubRepair re-encoded after the flap
	// scenario (stripes torn by mid-update message drops).
	RepairedBlocks int
	Window
}

// flipCorruptor corrupts every rate-th checksum-bearing payload crossing
// the fabric, cloning so the sender's buffers stay intact. The corruptor
// targets the client-facing and repair paths; the engines' internal
// fan-out messages (DeltaAppend, ParixAppend, ParityDelta, LogReplica,
// ReplayUpdate) now carry Sums too and are verified centrally at OSD
// dispatch, but they are deliberately NOT corrupted here: a flipped XOR
// delta rejected mid-fan-out would make the client's retry re-apply the
// delta to parities that already took it, which is not idempotent — the
// detection path is covered by the wire-level unit tests instead.
func flipCorruptor(rate int) netsim.Corruptor {
	seen := 0
	flip := func(data []byte) ([]byte, bool) {
		if len(data) == 0 {
			return nil, false
		}
		seen++
		if seen%rate != 0 {
			return nil, false
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)/2] ^= 0xff
		return cp, true
	}
	return func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
		switch v := m.(type) {
		case *wire.PutBlock:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.ReadResp:
			if v.Err == "" {
				if data, ok := flip(v.Data); ok {
					cp := *v
					cp.Data = data
					return &cp, true
				}
			}
		case *wire.Update:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.DegradedUpdate:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.JournalReplica:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		}
		return nil, false
	}
}

// chaosKills reports whether the scenario fails and recovers an OSD.
func chaosKills(scenario string) bool {
	return scenario == ChaosBaseline || scenario == ChaosStraggler
}

// RunChaos preloads a volume, runs the degraded experiment's foreground
// update + reader-probe workload (with a denser probe pool: the fault
// windows are short fixed slices of virtual time, so the tail estimate
// needs every sample it can get), arms the scenario's fault a third of the
// way through, and measures the read tail inside the fault window. Kill
// scenarios recover under RecoverInterleaved once the window has closed;
// live-fault scenarios heal the fabric after a fixed virtual window. Every
// run ends with a drain, a tear-repair scrub where the fault can tear
// stripes, and a full verification scrub.
func RunChaos(cfg RunConfig, scen string) (*ChaosResult, error) {
	res := &ChaosResult{Cfg: cfg, Scenario: scen}
	var victim wire.NodeID
	sc := scenario{
		name:        "chaos",
		payloadSeed: 999,
		readersPer:  2,
		minReaders:  4,
		readerGap:   250 * time.Microsecond,
		script: func(p *sim.Proc, r *scenarioRun) error {
			var err error
			victim, err = chaosFault(p, r, scen)
			return err
		},
		after: func(p *sim.Proc, r *scenarioRun) error {
			c := r.c
			if victim != 0 {
				rep, err := c.Recover(p, victim, 8, cluster.RecoverInterleaved, r.admin)
				if err != nil {
					return fmt.Errorf("recover (%s): %w", scen, err)
				}
				res.Report = rep
			}
			res.HedgeFired, res.HedgeWins = c.HedgeStats()
			res.CorruptInjected = c.Fabric.CorruptionsInjected()
			res.CorruptDetected = c.CorruptionsDetected()
			if res.CorruptDetected != res.CorruptInjected {
				return fmt.Errorf("%s: %d corruptions injected but %d detected — silent escape",
					scen, res.CorruptInjected, res.CorruptDetected)
			}
			return nil
		},
	}
	if scen == ChaosFlap {
		sc.repaired = &res.RepairedBlocks
	}
	if err := runScenario(cfg, sc, &res.Window); err != nil {
		return nil, err
	}
	return res, nil
}

// chaosFault runs one scenario's fault inside the window and returns the
// node it killed (0 for the live-fault scenarios). The kill victim is the
// most-loaded OSD, so the rebuild volume is representative; the fault
// target of the straggler and live-fault scenarios is the most-loaded
// survivor, so the fault actually intersects the workload.
func chaosFault(p *sim.Proc, r *scenarioRun, scen string) (wire.NodeID, error) {
	c := r.c
	switch scen {
	case ChaosBaseline, ChaosStraggler:
		// Degraded window of fixed virtual length: the victim is down and
		// the degraded route serves (reads of lost blocks reconstruct on
		// the fly, updates journal at the surrogate), with one
		// lognormal-slow survivor in the straggler variant. Recovery runs
		// AFTER the window closes, so the measured tail is the straggler's
		// (and the hedge's), not each engine's rebuild-duration artifact.
		victim := mostLoaded(c, 0)
		target := mostLoaded(c, victim)
		if err := c.Fabric.SetDown(victim, true); err != nil {
			return 0, err
		}
		if err := c.BeginDegraded(p, victim, r.admin); err != nil {
			return 0, fmt.Errorf("begin degraded (%s): %w", scen, err)
		}
		if scen == ChaosStraggler {
			if err := c.Fabric.SetNodeShape(target, netsim.LinkShape{Latency: chaosStragglerDist()}); err != nil {
				return 0, err
			}
		}
		p.Sleep(10 * time.Millisecond)
		if scen == ChaosStraggler {
			if err := c.Fabric.SetNodeShape(target, netsim.LinkShape{}); err != nil {
				return 0, err
			}
		}
		return victim, nil
	case ChaosPartition:
		// Asymmetric grey failure: every client loses its link TO one
		// loaded OSD (requests die pre-handler, so no side effects); ops
		// touching it retry until the heal.
		target := mostLoaded(c, 0)
		for _, cid := range r.clients {
			if err := c.Fabric.Partition(cid, target, true); err != nil {
				return 0, err
			}
		}
		p.Sleep(4 * time.Millisecond)
		for _, cid := range r.clients {
			if err := c.Fabric.Partition(cid, target, false); err != nil {
				return 0, err
			}
		}
		p.Sleep(time.Millisecond) // let retried ops land inside the window
	case ChaosFlap:
		// One loaded OSD flaps down/up mid-update. Drops inside the flap
		// windows can tear stripes (data applied, parity delta lost,
		// retried delta XORs to zero) — ScrubRepair re-encodes them after
		// the drain, before the verification scrub.
		target := mostLoaded(c, 0)
		if err := c.Fabric.ScheduleFlap(target, p.Now()+200*time.Microsecond, 500*time.Microsecond, 1500*time.Microsecond, 3); err != nil {
			return 0, err
		}
		p.Sleep(6 * time.Millisecond) // outlasts the last flap window
	case ChaosCorrupt:
		c.Fabric.SetCorruptor(flipCorruptor(chaosCorruptRate))
		p.Sleep(6 * time.Millisecond)
		c.Fabric.SetCorruptor(nil)
	default:
		return 0, fmt.Errorf("unknown chaos scenario %q", scen)
	}
	return 0, nil
}

// Chaos runs the chaos experiment: every engine × every fault scenario
// under the foreground workload, reporting the window read tail
// (p50/p95/p99), the IOPS dip, the hedge fired/win counters, the
// corruption injected/detected counters (which must match), and — the
// headline comparison — each engine's straggler p99 degradation relative
// to its own clean-recovery baseline.
func Chaos(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Chaos: read tail under injected faults (SSD, RS(6,4), interleaved recovery for kill scenarios) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tscenario\trecover(ms)\tbase IOPS\tduring IOPS\tdip\trd p50(ms)\trd p95(ms)\trd p99(ms)\trd err\thedge f/w\tcorrupt i/d\trepaired\tp99 vs base")
	for _, eng := range update.Names() {
		var baselineP99 float64
		for _, scen := range ChaosScenarios() {
			cfg := baseRun(s)
			cfg.Engine = eng
			cfg.Clients = 16
			cfg.Trace = s.traceProfile("ali")
			if chaosKills(scen) {
				cfg.Hedge = chaosHedgeDelay
			}
			r, err := RunChaos(cfg, scen)
			if err != nil {
				return fmt.Errorf("chaos %s %s: %w", eng, scen, err)
			}
			recoverMS := 0.0
			if r.Report != nil {
				recoverMS = ms(r.Report.TotalTime)
			}
			p99 := ms(r.ReadP(0.99))
			ratio := ""
			labels := map[string]string{"engine": eng, "scenario": scen}
			if scen == ChaosBaseline {
				baselineP99 = p99
			} else if scen == ChaosStraggler {
				if baselineP99 > 0 {
					rr := p99 / baselineP99
					ratio = fmt.Sprintf("%.2fx", rr)
					s.Sink.Record("chaos", "straggler_p99_ratio", map[string]string{"engine": eng}, rr)
				} else {
					// An empty baseline window must not read as "no
					// regression" in the BENCH trajectory: say so out loud
					// and leave the ratio metric absent.
					ratio = "skip (no baseline reads)"
					fmt.Fprintf(w, "chaos %s: baseline window saw 0 reads; skipping straggler_p99_ratio\n", eng)
				}
			}
			s.Sink.Record("chaos", "read_samples", labels, float64(len(r.ReadLats)))
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.0f\t%.0f\t%.0f%%\t%.2f\t%.2f\t%.2f\t%d\t%d/%d\t%d/%d\t%d\t%s\n",
				eng, scen, recoverMS,
				r.BaselineIOPS, r.DuringIOPS, r.DipPct,
				ms(r.ReadP(0.50)), ms(r.ReadP(0.95)), p99, r.ReadErrs,
				r.HedgeFired, r.HedgeWins,
				r.CorruptInjected, r.CorruptDetected,
				r.RepairedBlocks, ratio)
			s.Sink.Record("chaos", "read_p50_ms", labels, ms(r.ReadP(0.50)))
			s.Sink.Record("chaos", "read_p95_ms", labels, ms(r.ReadP(0.95)))
			s.Sink.Record("chaos", "read_p99_ms", labels, p99)
			s.Sink.Record("chaos", "read_errs", labels, float64(r.ReadErrs))
			s.Sink.Record("chaos", "dip_pct", labels, r.DipPct)
			s.Sink.Record("chaos", "hedge_fired", labels, float64(r.HedgeFired))
			s.Sink.Record("chaos", "hedge_wins", labels, float64(r.HedgeWins))
			s.Sink.Record("chaos", "corrupt_injected", labels, float64(r.CorruptInjected))
			s.Sink.Record("chaos", "corrupt_detected", labels, float64(r.CorruptDetected))
			if r.Report != nil {
				s.Sink.Record("chaos", "recover_ms", labels, recoverMS)
			}
			if scen == ChaosFlap {
				s.Sink.Record("chaos", "repaired_blocks", labels, float64(r.RepairedBlocks))
			}
		}
	}
	return tw.Flush()
}
