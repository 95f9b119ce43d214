// Command ablationbench runs the design-choice ablations called out in
// DESIGN.md with the duration-based harness:
//
//   - cm:       contention-manager policy sweep on the Collection workload
//     (hot-spot arbitration — section 2.2's "various strategies");
//   - versions: retained-version depth (1/2/4) vs snapshot abort rate
//     (the paper keeps two versions, section 5.1);
//   - window:   elastic window size (2/3/4) vs throughput and cuts;
//   - baseline: parse-only comparison against the fine-grained and
//     lock-free baselines (no size operations);
//   - cachestripes: striped CLOCK cache stripe count (1/2/4/8/16) vs throughput
//     and abort rate at the configured thread count — the cache
//     sharding design choice in isolation.
//
// Usage:
//
//	ablationbench [-run cm,versions,window,baseline,cachestripes]
//	              [-size 1024] [-dur 150ms] [-threads 4] [-procs 2,4,8]
//
// -procs repeats the ablations once per GOMAXPROCS value; each
// repetition is recorded as its own trajectory run with the host
// topology.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/storm"
	"repro/internal/txstruct"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ablationbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ablationbench", flag.ContinueOnError)
	var (
		which    = fs.String("run", "cm,versions,window,baseline,cachestripes", "comma-separated ablations")
		size     = fs.Int("size", 1024, "initial collection size")
		dur      = fs.Duration("dur", 150*time.Millisecond, "duration per point")
		threads  = fs.Int("threads", 4, "worker goroutines")
		jsonOut  = fs.Bool("json", false, "append the run to the JSON trajectory file")
		soak     = fs.Bool("soak", true, "run a correctness storm before the sweeps")
		outPath  = fs.String("out", "BENCH_ablation.json", "JSON trajectory file (with -json)")
		runLabel = fs.String("label", "run", "label recorded for this run in the trajectory")
		procsFl  = fs.String("procs", "", "comma-separated GOMAXPROCS values: repeat the ablations per value (empty = current setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs, err := parseProcs(*procsFl)
	if err != nil {
		return err
	}
	wl := bench.Workload{
		InitialSize: *size,
		UpdatePct:   bench.PaperUpdatePct,
		SizePct:     bench.PaperSizePct,
		Duration:    *dur,
		Threads:     *threads,
	}
	if *soak {
		// Every perf run doubles as a correctness run: the shared
		// pre-sweep storm with full history verification.
		reps, err := storm.Soak()
		if err != nil {
			return err
		}
		for _, rep := range reps {
			fmt.Printf("soak: %s\n", rep)
		}
		fmt.Println()
	}
	runOnce := func(label string) error {
		var rec *bench.JSONRun
		if *jsonOut {
			rec = bench.NewJSONRun("ablationbench", label, wl)
		}
		for _, name := range strings.Split(*which, ",") {
			switch strings.TrimSpace(name) {
			case "cm":
				if err := cmSweep(wl, rec); err != nil {
					return err
				}
			case "versions":
				if err := versionSweep(wl, rec); err != nil {
					return err
				}
			case "window":
				if err := windowSweep(wl, rec); err != nil {
					return err
				}
			case "baseline":
				if err := baselineSweep(wl, rec); err != nil {
					return err
				}
			case "cachestripes":
				if err := cacheStripesSweep(wl, rec); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown ablation %q", name)
			}
			fmt.Println()
		}
		if rec != nil {
			if err := bench.AppendJSONRun(*outPath, rec); err != nil {
				return err
			}
			fmt.Printf("appended run %q to %s\n", label, *outPath)
		}
		return nil
	}
	for _, p := range procs {
		label := *runLabel
		if p > 0 {
			runtime.GOMAXPROCS(p)
			label = fmt.Sprintf("%s@procs=%d", label, p)
			fmt.Printf("=== GOMAXPROCS=%d ===\n", p)
		}
		if err := runOnce(label); err != nil {
			return err
		}
	}
	return nil
}

// parseProcs parses the -procs list; empty input yields a single
// sentinel 0 ("leave GOMAXPROCS alone").
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	out := make([]int, 0, 4)
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -procs value %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func printHeader(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func cmSweep(wl bench.Workload, rec *bench.JSONRun) error {
	printHeader(fmt.Sprintf("ablation: contention managers (%d threads, %d elements, classic everything)",
		wl.Threads, wl.InitialSize))
	fmt.Printf("%-12s %12s %10s %8s\n", "policy", "ops/s", "aborts/att", "kills")
	for _, name := range cm.Names() {
		policy, err := cm.New(name)
		if err != nil {
			return err
		}
		f := bench.STMListFactoryWith("cm-"+name, txstruct.ListConfig{
			Parse: core.Classic, Size: core.Classic,
		}, core.WithContentionManager(policy))
		r, err := bench.Run(f, wl)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12.0f %9.1f%% %8d\n", name, r.Throughput, 100*r.AbortRate(), r.TxKills)
		if rec != nil {
			rec.AddPoint("cm", name, r)
		}
	}
	return nil
}

func versionSweep(wl bench.Workload, rec *bench.JSONRun) error {
	printHeader(fmt.Sprintf("ablation: retained versions vs snapshot success (%d threads, %d elements)",
		wl.Threads, wl.InitialSize))
	fmt.Printf("%-10s %12s %10s %14s %12s\n", "versions", "ops/s", "aborts/att", "snap-too-old", "old-reads")
	for _, depth := range []int{1, 2, 4} {
		f := bench.STMListFactoryWith(fmt.Sprintf("k%d", depth), txstruct.ListConfig{
			Parse: core.Elastic, Size: core.Snapshot,
		}, core.WithMaxVersions(depth))
		set, stats := buildInstrumented(f)
		r, err := runPrebuilt(f.Name, set, wl)
		if err != nil {
			return err
		}
		st := stats()
		fmt.Printf("%-10d %12.0f %9.1f%% %14d %12d\n",
			depth, r.Throughput, 100*r.AbortRate(),
			st.Aborts[core.AbortSnapshotTooOld], st.SnapshotOldReads)
		if rec != nil {
			rec.AddPoint("versions", f.Name, r)
		}
	}
	return nil
}

func windowSweep(wl bench.Workload, rec *bench.JSONRun) error {
	printHeader(fmt.Sprintf("ablation: elastic window size (%d threads, %d elements)",
		wl.Threads, wl.InitialSize))
	fmt.Printf("%-10s %12s %10s %14s\n", "window", "ops/s", "aborts/att", "cuts")
	for _, ws := range []int{2, 3, 4, 8} {
		f := bench.STMListFactoryWith(fmt.Sprintf("w%d", ws), txstruct.ListConfig{
			Parse: core.Elastic, Size: core.Snapshot,
		}, core.WithElasticWindow(ws))
		r, err := bench.Run(f, wl)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %12.0f %9.1f%% %14d\n", ws, r.Throughput, 100*r.AbortRate(), r.TxCuts)
		if rec != nil {
			rec.AddPoint("window", f.Name, r)
		}
	}
	return nil
}

func baselineSweep(wl bench.Workload, rec *bench.JSONRun) error {
	parseOnly := wl
	parseOnly.SizePct = 0
	printHeader(fmt.Sprintf("ablation: parse-only baselines (%d threads, %d elements, no size ops)",
		parseOnly.Threads, parseOnly.InitialSize))
	fmt.Printf("%-18s %12s\n", "implementation", "ops/s")
	for _, f := range []bench.Factory{
		bench.SnapshotMixedFactory(),
		bench.ClassicSTMFactory(),
		bench.SkipListFactory("tx-skiplist", core.Snapshot),
		bench.HashSetFactory("tx-hashset", 64, txstruct.ListConfig{
			Parse: core.Elastic, Size: core.Snapshot,
		}),
		bench.CoarseFactory(),
		bench.HoHFactory(),
		bench.LazyFactory(),
		bench.HarrisFactory(),
		bench.StripedFactory(),
	} {
		r, err := bench.Run(f, parseOnly)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %12.0f\n", f.Name, r.Throughput)
		if rec != nil {
			rec.AddPoint("baseline", f.Name, r)
		}
	}
	return nil
}

// cacheStripesSweep isolates the cache sharding choice: the striped cache
// at 1..16 stripes, fixed thread count, get-heavy mix. The shared sweep
// prints the table and records one series per stripe count.
func cacheStripesSweep(wl bench.Workload, rec *bench.JSONRun) error {
	printHeader(fmt.Sprintf("ablation: cache stripes (%d threads, capacity %d)",
		wl.Threads, wl.InitialSize/2))
	_, err := bench.RunCacheStripesSweep(os.Stdout, rec, bench.CacheStripesConfig{
		Capacity: wl.InitialSize / 2,
		Threads:  []int{wl.Threads},
		Duration: wl.Duration,
	})
	return err
}

// buildInstrumented materializes an instrumented factory once so the
// caller can read its stats after running.
func buildInstrumented(f bench.Factory) (intset.Set, bench.StatsFn) {
	return f.NewInstrumented()
}

// runPrebuilt measures an already-built set with the harness's mix by
// wrapping it in a single-use factory.
func runPrebuilt(name string, set intset.Set, wl bench.Workload) (bench.Result, error) {
	return bench.Run(bench.Factory{
		Name: name,
		New:  func() intset.Set { return set },
	}, wl)
}
