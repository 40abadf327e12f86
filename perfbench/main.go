// Command perfbench measures the simulator's host cost on fixed TSUE
// workloads, next to the simulated-clock results that must not change.
//
//	bash perfbench/run.sh --workload tsue-ali --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//
// A run repeats one batch (build and preload a cluster, run the timed
// phase, verify) until --seconds have passed and reports medians. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it splits the
// time between untraced batches and traced ones (CPU and allocation
// profiles, sim-time spans) and prints the per-layer metrics. The last
// line of standard output is one JSON object. Every batch of one seed must
// produce identical simulated-clock results, traced or not; any
// difference, failed operation or byte mismatch fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tsue/internal/obs"
)

// runTimeout fails a workload run, in one mode, that takes longer than
// this: a hung simulation fails fast, inside the 180 s a run may take.
const runTimeout = 170 * time.Second

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what one workload run prints.
type report struct {
	attempted, failed int
	metrics           []metric
	err               error
	// fingerprint hashes every simulated-clock result and count of the
	// run; a change that claims to leave the simulation alone keeps it.
	fingerprint string
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "host seconds to measure per workload and mode")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// The event loop gives up at the deadline. A simulation stuck inside
	// one event never returns to that check; the watchdog ends the process.
	watchdog := time.AfterFunc(runTimeout+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded its timeout")
		os.Exit(3)
	})
	arm := func() time.Time {
		watchdog.Reset(runTimeout + 5*time.Second)
		return time.Now().Add(runTimeout)
	}
	budget := time.Duration(*seconds) * time.Second
	if *name == "all" {
		os.Exit(runAll(*seed, budget, arm))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	mode := endToEnd
	if *traced == 1 {
		mode = perLayer
	}
	r := mode(w, *seed, budget, arm())
	printTable(w.name, r)
	os.Exit(emit(r))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runAll runs every workload in both modes and prints one combined result
// whose metric names carry the workload as a prefix.
func runAll(seed int64, budget time.Duration, arm func() time.Time) int {
	var all report
	for _, w := range workloads {
		for _, mode := range []func(workload, int64, time.Duration, time.Time) report{endToEnd, perLayer} {
			r := mode(w, seed, budget, arm())
			printTable(w.name, r)
			all.attempted += r.attempted
			all.failed += r.failed
			for _, m := range r.metrics {
				m.name = w.name + "/" + m.name
				all.metrics = append(all.metrics, m)
			}
			if r.err != nil && all.err == nil {
				all.err = fmt.Errorf("%s: %w", w.name, r.err)
			}
		}
	}
	return emit(all)
}

// measure runs batches of w until budget has passed and at least
// minBatches are done. Every batch's simulated outcome must equal ref's (or
// the first batch's when ref is nil). traced batches run under the CPU and
// allocation profilers and the sim-time tracer; their profiles are merged.
func measure(w workload, seed int64, budget time.Duration, minBatches int, traced bool, deadline time.Time, ref *simOutcome) ([]batchResult, *layerProfile, error) {
	var out []batchResult
	var prof *layerProfile
	start := time.Now()
	for len(out) < minBatches || time.Since(start) < budget {
		var hooks *tracedHooks
		var lp *layerProfile
		var hookErr error
		if traced {
			hooks, lp = profileHooks(&hookErr)
		}
		r := runBatch(w, seed, hooks, deadline)
		if r.err == nil {
			r.err = hookErr
		}
		h := r.host
		fmt.Fprintf(os.Stderr, "perfbench: %s batch %d traced=%v: setup %.3fs run %.3fs cpu %.3fs alloc %.0fMiB\n",
			w.name, len(out)+1, traced, h.setup, h.run, h.cpu, float64(h.alloc)/mib)
		if r.err == nil && ref != nil && r.sim != *ref {
			r.err = fmt.Errorf("simulated results differ between batches of one seed:\n first: %+v\n later: %+v", *ref, r.sim)
		}
		out = append(out, r)
		if r.err != nil {
			return out, nil, r.err
		}
		if ref == nil {
			ref = &out[0].sim
		}
		if lp != nil {
			if prof == nil {
				prof = &layerProfile{cpu: newLayerFold(), alloc: newLayerFold()}
			}
			prof.merge(lp)
		}
	}
	return out, prof, nil
}

// profileHooks returns the hooks that profile a traced batch's timed phase
// and the profile they fill in. A profiling failure lands in *errp.
func profileHooks(errp *error) (*tracedHooks, *layerProfile) {
	lp := &layerProfile{}
	var cpu bytes.Buffer
	var before *profile
	h := &tracedHooks{
		start: func() {
			var err error
			if before, err = allocSnapshot(); err == nil {
				err = pprof.StartCPUProfile(&cpu)
			}
			if err != nil {
				*errp = fmt.Errorf("start profiling: %w", err)
			}
		},
		stop: func() {
			pprof.StopCPUProfile()
			if *errp != nil {
				return
			}
			err := func() error {
				after, err := allocSnapshot()
				if err != nil {
					return err
				}
				if lp.alloc, err = foldDelta(before, after, "alloc_space"); err != nil {
					return fmt.Errorf("fold allocations: %w", err)
				}
				p, err := parseProfile(cpu.Bytes())
				if err != nil {
					return err
				}
				if lp.cpu, err = foldProfile(p, "cpu"); err != nil {
					return fmt.Errorf("fold CPU profile: %w", err)
				}
				return nil
			}()
			*errp = err
		},
	}
	return h, lp
}

// allocSnapshot reads the cumulative allocation profile. The runtime
// publishes it as of the last completed GC, so one runs first.
func allocSnapshot() (*profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	return parseProfile(buf.Bytes())
}

func attempts(rs []batchResult) (attempted, failed int) {
	for _, r := range rs {
		attempted += r.sim.Attempted
		failed += r.sim.Failed
	}
	return attempted, failed
}

// endToEnd measures untraced batches for the whole budget.
func endToEnd(w workload, seed int64, budget time.Duration, deadline time.Time) report {
	rs, _, err := measure(w, seed, budget, 3, false, deadline, nil)
	var r report
	r.attempted, r.failed = attempts(rs)
	r.err = err
	if err != nil {
		return r
	}
	s := rs[0].sim
	r.fingerprint = s.fingerprint()
	host := func(f func(hostCost) float64) float64 { return medianOf(rs, f) }
	r.metrics = []metric{
		{"setup_s", "s", host(func(h hostCost) float64 { return h.setup })},
		{"run_s", "s", host(func(h hostCost) float64 { return h.run })},
		{"cpu_s", "s", host(func(h hostCost) float64 { return h.cpu })},
		{"alloc_mb", "MiB", host(func(h hostCost) float64 { return float64(h.alloc) / mib })},
		{"peak_mem_mb", "MiB", host(func(h hostCost) float64 { return float64(h.peakMem) / mib })},
		{"sim_iops", "1/s", float64(s.SteadyOps) / s.SteadyTime.Seconds()},
		{"sim_update_mean_us", "us", us(s.UpdMean)},
		{"sim_read_mean_us", "us", us(s.ReadMean)},
		{"sim_write_amp", "ratio", float64(s.Dev.NandWriteBytes) / float64(s.UpdateBytes)},
		{"sim_net_bytes_per_update_byte", "ratio", float64(s.Net.BytesSent) / float64(s.UpdateBytes)},
	}
	return r
}

// perLayer splits the budget between untraced batches, which give the
// baseline for the tracing overhead and the phase times, and traced ones,
// which give the profiles and the sim-time stage means.
func perLayer(w workload, seed int64, budget time.Duration, deadline time.Time) report {
	var r report
	plain, _, err := measure(w, seed, budget/2, 2, false, deadline, nil)
	r.attempted, r.failed = attempts(plain)
	if err != nil {
		r.err = err
		return r
	}
	traced, prof, err := measure(w, seed, budget/2, 1, true, deadline, &plain[0].sim)
	a, f := attempts(traced)
	r.attempted, r.failed = r.attempted+a, r.failed+f
	if err != nil {
		r.err = err
		return r
	}
	s := plain[0].sim
	r.fingerprint = s.fingerprint()
	n := float64(len(traced))
	runPlain := medianOf(plain, func(h hostCost) float64 { return h.run })
	runTraced := medianOf(traced, func(h hostCost) float64 { return h.run })

	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }
	for _, l := range layers {
		add(l+".self_ms", "ms", float64(prof.cpu.self[l])/1e6/n)
		add(l+".cum_ms", "ms", float64(prof.cpu.cum[l])/1e6/n)
		add(l+".alloc_mb", "MiB", float64(prof.alloc.cum[l])/mib/n)
	}
	listed := prof.cpu.self[bucketGC] + prof.cpu.self[bucketSched] + prof.cpu.self[bucketBench]
	for _, l := range layers {
		listed += prof.cpu.self[l]
	}
	add("runtime.gc.self_ms", "ms", float64(prof.cpu.self[bucketGC])/1e6/n)
	add("runtime.sched.self_ms", "ms", float64(prof.cpu.self[bucketSched])/1e6/n)
	add("bench.self_ms", "ms", float64(prof.cpu.self[bucketBench])/1e6/n)
	add("other.self_ms", "ms", float64(prof.cpu.total-listed)/1e6/n)
	add("profile.cpu_ms", "ms", float64(prof.cpu.total)/1e6/n)
	add("profile.alloc_mb", "MiB", float64(prof.alloc.total)/mib/n)
	add("bench.trace_overhead_pct", "%", (runTraced/runPlain-1)*100)

	// The client, admission and codec stages stay empty here: no admission
	// policy or recovery gate delays these updates, and codec spans are
	// zero-width markers.
	for _, st := range []obs.Stage{obs.StageNetwork, obs.StageService, obs.StageJournal, obs.StageDevice} {
		add("stage."+st.String()+"_us", "us", us(traced[0].stages[st]))
	}

	for p := phReplay; p <= phVerify; p++ {
		add("phase."+phaseNames[p]+"_s", "s", medianOf(plain, func(h hostCost) float64 { return h.phase[p] }))
	}
	add("sim.events", "count", float64(s.Events))
	add("sim.host_ns_per_event", "ns", runPlain*1e9/float64(s.Events))
	add("sim.procs_peak", "count", float64(s.ProcsPeak))
	add("sim.update_samples", "count", float64(s.Updates))
	add("sim.update_p50_us", "us", us(s.UpdP50))
	add("sim.update_p99_us", "us", us(s.UpdP99))
	add("sim.read_samples", "count", float64(s.Reads))
	add("sim.read_p50_us", "us", us(s.ReadP50))
	add("sim.read_p99_us", "us", us(s.ReadP99))
	add("netsim.msgs", "count", float64(s.Net.MsgsSent))
	add("netsim.mb", "MiB", float64(s.Net.BytesSent)/mib)
	add("device.read_ops", "count", float64(s.Dev.ReadOps))
	add("device.write_ops", "count", float64(s.Dev.WriteOps))
	add("device.write_mb", "MiB", float64(s.Dev.WriteBytes)/mib)
	add("device.nand_write_mb", "MiB", float64(s.Dev.NandWriteBytes)/mib)
	add("device.erases", "count", float64(s.Dev.Erases))
	add("device.busy_ms", "ms", float64(s.Dev.BusyTime)/1e6)
	var appends, recycled int64
	for _, l := range []struct {
		name    string
		a, r, u int64
	}{
		{"data", s.Data.AppendN, s.Data.RecycleN, s.Data.Units},
		{"delta", s.Delta.AppendN, s.Delta.RecycleN, s.Delta.Units},
		{"parity", s.Parity.AppendN, s.Parity.RecycleN, s.Parity.Units},
	} {
		add("update."+l.name+".appends", "count", float64(l.a))
		add("update."+l.name+".recycled", "count", float64(l.r))
		add("update."+l.name+".units", "count", float64(l.u))
		appends += l.a
		recycled += l.r
	}
	ratio := 0.0
	if appends > 0 {
		ratio = float64(recycled) / float64(appends)
	}
	add("update.recycle_per_append", "ratio", ratio)
	add("logpool.peak_mem_mb", "MiB", float64(s.PeakMem)/mib)
	add("recover.mb", "MiB", float64(s.RecBytes)/mib)
	recMBps := 0.0
	if s.RecTime > 0 {
		recMBps = float64(s.RecBytes) / mib / s.RecTime.Seconds()
	}
	add("recover.sim_mbps", "MiB/s", recMBps)
	r.metrics = ms
	return r
}

// layers are the simulator's internal packages, each reported by name.
var layers = []string{
	"blockstore", "cluster", "device", "gf256", "logpool", "netsim", "obs",
	"placement", "rs", "sim", "trace", "update", "wire",
}

const mib = 1 << 20

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianOf is the median of one host-cost figure across batches.
func medianOf(rs []batchResult, f func(hostCost) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r.host)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// printTable prints the metrics for people.
func printTable(name string, r report) {
	fmt.Printf("== %s: %d attempted, %d failed, sim fingerprint %s\n", name, r.attempted, r.failed, r.fingerprint)
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	if r.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, r.err)
	}
}

// emit prints the result line and returns the exit code.
func emit(r report) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.err == nil && r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
