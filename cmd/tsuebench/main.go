// Command tsuebench regenerates the TSUE paper's tables and figures on the
// simulated 16-node ECFS cluster.
//
// Usage:
//
//	tsuebench -exp all                 # every experiment, quick scale
//	tsuebench -exp fig5 -scale full    # one experiment at paper-grid scale
//	tsuebench -list
//	tsuebench -exp obs -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tsue/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	scale := flag.String("scale", "quick", "quick | full")
	ops := flag.Int("ops", 0, "override total ops per run")
	fileMB := flag.Int64("filemb", 0, "override working-set size (MiB)")
	pgs := flag.String("pgs", "", "override the placement experiment's PG-count sweep (comma-separated, e.g. 2,16,128)")
	files := flag.Int("files", 0, "override the placement experiment's file count")
	addOSD := flag.Int("addosd", 0, "override how many OSDs the rebalance experiment adds online")
	rebalanceRate := flag.Int64("rebalance-rate", -1, "rebalance copy throttle in MB/s (0 = unthrottled)")
	traceEvery := flag.Int("obs", 0, "trace every n-th op end-to-end (0 = off; zero-perturbation — results unchanged)")
	jsonOut := flag.Bool("json", false, "also write machine-readable results to BENCH_<exp>.json")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the experiment run to this file")
	flag.Parse()

	exps := harness.Experiments()
	if *list {
		names := make([]string, 0, len(exps))
		for n := range exps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	fn, ok := exps[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "tsuebench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	var s harness.Scale
	switch *scale {
	case "quick":
		s = harness.QuickScale()
	case "full":
		s = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "tsuebench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *ops > 0 {
		s.Ops = *ops
	}
	if *fileMB > 0 {
		s.FileMB = *fileMB
	}
	if *pgs != "" {
		var counts []int
		for _, f := range strings.Split(*pgs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "tsuebench: bad -pgs entry %q\n", f)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		s.PGCounts = counts
	}
	if *files > 0 {
		s.Files = *files
	}
	if *addOSD > 0 {
		s.AddOSDs = *addOSD
	}
	if *rebalanceRate >= 0 {
		s.RebalanceRateBps = *rebalanceRate << 20
	}
	if *traceEvery > 0 {
		s.TraceSample = *traceEvery
	}
	if *jsonOut {
		s.Sink = &harness.Sink{}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	runErr := fn(os.Stdout, s)
	wall := time.Since(start)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tsuebench: %v\n", runErr)
		os.Exit(1)
	}
	if *jsonOut {
		if err := writeJSON(*exp, *scale, s, wall); err != nil {
			fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("\n(%s scale, wall time %v)\n", *scale, wall.Round(time.Millisecond))
}

// startProfiles starts a CPU profile into cpuPath (if set). The returned
// stop ends it and writes the allocation profile into memPath (if set),
// so both cover the experiment run only.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so in-use figures are current
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// benchFile is the machine-readable result envelope: one BENCH_<exp>.json
// per invocation, so successive runs of the same experiment can be diffed
// into a perf trajectory.
type benchFile struct {
	Experiment string           `json:"experiment"`
	Scale      string           `json:"scale"`
	Ops        int              `json:"ops"`
	FileMB     int64            `json:"file_mb"`
	WallMs     int64            `json:"wall_ms"`
	Metrics    []harness.Metric `json:"metrics"`
}

func writeJSON(exp, scale string, s harness.Scale, wall time.Duration) error {
	out := benchFile{
		Experiment: exp,
		Scale:      scale,
		Ops:        s.Ops,
		FileMB:     s.FileMB,
		WallMs:     wall.Milliseconds(),
		Metrics:    s.Sink.Metrics,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", exp)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n(wrote %s: %d metrics)\n", path, len(out.Metrics))
	return nil
}
