package harness

// TestScenarioGolden pins every failure/rebalance scenario's deterministic
// outputs at a tiny scale. The simulation is a pure function of model and
// seed, so any change to client-creation order, proc spawn order or an RNG
// seed in the scenario plumbing shows up here as a changed digest line.

import (
	"fmt"
	"testing"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/rebalance"
)

func goldenScale() Scale {
	s := QuickScale()
	s.Ops = 600
	s.FileMB = 8
	return s
}

// goldenWindow formats the measured-window fields every closed-loop
// scenario shares: IOPS before/inside the window, the dip, and stripes.
func goldenWindow(base, during, dip float64, stripes int) string {
	return fmt.Sprintf("base=%v during=%v dip=%v stripes=%d", base, during, dip, stripes)
}

func goldenReads(n int, p50, p99 time.Duration, errs int) string {
	return fmt.Sprintf("reads=%d p50=%v p99=%v rderr=%d", n, p50, p99, errs)
}

func goldenRecovery(rep *cluster.RecoveryReport) string {
	if rep == nil {
		return "rec=nil"
	}
	return fmt.Sprintf("rec=%v blocks=%d replayed=%d/%d", rep.TotalTime, rep.Blocks, rep.ReplayedItems, rep.ReplayedBytes)
}

// goldenRun is one pinned scenario: run returns its digest line.
type goldenRun struct {
	name   string
	run    func() (string, error)
	golden string
}

func TestScenarioGolden(t *testing.T) {
	s := goldenScale()
	runs := []goldenRun{
		{"degraded/interleaved", func() (string, error) {
			cfg := baseRun(s)
			cfg.Clients = 16
			cfg.Trace = s.traceProfile("ali")
			r, err := RunDegraded(cfg, cluster.RecoverInterleaved)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %s %s q=%d/%d/%d/%d", goldenWindow(r.BaselineIOPS, r.DuringIOPS, r.DipPct, r.Stripes),
				goldenReads(len(r.ReadLats), r.ReadP(0.50), r.ReadP(0.99), r.ReadErrs), goldenRecovery(r.Report),
				r.QuorumSentMsgs, r.QuorumSentBytes, r.QuorumHeldMsgs, r.QuorumHeldBytes), nil
		}, "base=24457.831325301206 during=1011.5167869429367 dip=95.86424170855844 stripes=2 reads=52 p50=61.045µs p99=32.294726ms rderr=0 rec=55.362403ms blocks=2 replayed=52/2977792 q=176/10223616/176/10223616"},
		{"rebalance/+1", func() (string, error) {
			cfg := baseRun(s)
			cfg.Clients = 16
			cfg.Files = s.Files
			cfg.PGs = 64
			cfg.BlockSize = 256 << 10
			cfg.Trace = s.traceProfile("ali")
			r, err := RunRebalance(cfg, rebalance.Config{RateBps: s.RebalanceRateBps, MaxInFlightPGs: 2}, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s moved=%d bound=%v new=%v", goldenWindow(r.BaselineIOPS, r.DuringIOPS, r.DipPct, r.Stripes),
				r.MovedBlocks(), r.BoundBlocks(), r.NewOSDs), nil
		}, "base=41020.40816326531 during=5208.8834216935875 dip=87.301726981941 stripes=8 moved=5 bound=4.705882352941177 new=[34]"},
		{"rebalance-kill", func() (string, error) {
			cfg := baseRun(s)
			cfg.Clients = 8
			cfg.Files = s.Files
			cfg.PGs = 64
			cfg.BlockSize = 256 << 10
			cfg.Trace = s.traceProfile("ali")
			r, err := RunRebalanceKill(cfg, rebalance.Config{RateBps: s.RebalanceRateBps, MaxInFlightPGs: 2})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("victim=%d epoch=%d moved=%d aborted=%d finished=%d %s q=%d/%d/%d/%d stripes=%d",
				r.Victim, r.SettledEpoch, r.Report.MovedBlocks, r.Report.AbortedPGs, r.Report.FinishedPGs,
				goldenRecovery(r.Recovery), r.QuorumSentMsgs, r.QuorumSentBytes, r.QuorumHeldMsgs, r.QuorumHeldBytes, r.Stripes), nil
		}, "victim=7 epoch=1 moved=6 aborted=0 finished=1 rec=12.177035ms blocks=3 replayed=24/884736 q=84/2310144/84/2310144 stripes=8"},
		{"multikill/3", func() (string, error) {
			cfg := baseRun(s)
			cfg.Trace = s.traceProfile("ali")
			r, err := RunDegradedMultiKill(cfg, 3)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dead=%d/%d/%d appends=%d promoted=%d repaired=%d q=%d/%d/%d/%d rec=%v replayed=%d stripes=%d",
				r.Failed, r.Surr, r.Holder, r.Appends, r.Kill.PromotedJournals, r.Kill.RepairedItems,
				r.QuorumSentMsgs, r.QuorumSentBytes, r.QuorumHeldMsgs, r.QuorumHeldBytes,
				r.RecoverTotal, r.ReplayedItems, r.Stripes), nil
		}, "dead=3/15/16 appends=150 promoted=1 repaired=100 q=950/3891200/950/3891200 rec=26.053361ms replayed=150 stripes=2"},
	}
	for _, scen := range ChaosScenarios() {
		scen := scen
		runs = append(runs, goldenRun{"chaos/" + scen, func() (string, error) {
			cfg := baseRun(s)
			cfg.Clients = 16
			cfg.Trace = s.traceProfile("ali")
			if chaosKills(scen) {
				cfg.Hedge = chaosHedgeDelay
			}
			r, err := RunChaos(cfg, scen)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %s %s hedge=%d/%d corrupt=%d/%d repaired=%d", goldenWindow(r.BaselineIOPS, r.DuringIOPS, r.DipPct, r.Stripes),
				goldenReads(len(r.ReadLats), r.ReadP(0.50), r.ReadP(0.99), r.ReadErrs), goldenRecovery(r.Report),
				r.HedgeFired, r.HedgeWins, r.CorruptInjected, r.CorruptDetected, r.RepairedBlocks), nil
		}, chaosGolden[scen]})
	}
	for _, tc := range runs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.golden {
				t.Errorf("digest changed\n got: %s\nwant: %s", got, tc.golden)
			}
		})
	}
}

var chaosGolden = map[string]string{
	ChaosBaseline:  "base=22307.692307692305 during=3789.932105446172 dip=83.01064918248268 stripes=2 reads=135 p50=455.022µs p99=31.663471ms rderr=0 rec=60.433358ms blocks=2 replayed=182/9056256 hedge=0/0 corrupt=0/0 repaired=0",
	ChaosStraggler: "base=22307.692307692305 during=415.96815791482373 dip=98.13531515417493 stripes=2 reads=174 p50=122.086µs p99=31.663471ms rderr=0 rec=13.313719ms blocks=2 replayed=30/1810432 hedge=2/2 corrupt=0/0 repaired=0",
	ChaosPartition: "base=22307.692307692305 during=5600 dip=74.89655172413792 stripes=2 reads=112 p50=61.045µs p99=323.116µs rderr=0 rec=nil hedge=0/0 corrupt=0/0 repaired=0",
	ChaosFlap:      "base=22307.692307692305 during=5000 dip=77.58620689655173 stripes=2 reads=144 p50=61.045µs p99=323.116µs rderr=0 rec=nil hedge=0/0 corrupt=0/0 repaired=1",
	ChaosCorrupt:   "base=22307.692307692305 during=5000 dip=77.58620689655173 stripes=2 reads=133 p50=61.045µs p99=1.134682ms rderr=0 rec=nil hedge=0/0 corrupt=5/5 repaired=0",
}

// TestScenarioWarmupWritersExited pins the warm-up exit: with 20*Ops <
// Clients every writer's op budget is zero and the Ops/3 warm-up target is
// unreachable, so the runner must open the window once every writer has
// exited. Before the fix this configuration slept forever (the test then
// hangs until the go test timeout).
func TestScenarioWarmupWritersExited(t *testing.T) {
	s := goldenScale()
	cfg := baseRun(s)
	cfg.Ops = 1
	cfg.Clients = 32
	cfg.Trace = s.traceProfile("ali")
	r, err := RunDegraded(cfg, cluster.RecoverInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineIOPS != 0 || r.Stripes == 0 {
		t.Fatalf("base IOPS %v with no writer ops, %d stripes scrubbed", r.BaselineIOPS, r.Stripes)
	}
	rb, err := RunRebalance(cfg, rebalance.Config{RateBps: s.RebalanceRateBps, MaxInFlightPGs: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MovedBlocks() == 0 {
		t.Fatal("expansion moved nothing")
	}
}
