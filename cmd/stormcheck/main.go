// Command stormcheck runs the storm harness from the command line: a
// seed-driven mixed-semantics concurrency storm over a chosen workload,
// followed by the full history verification — opacity for classic
// transactions, the cut rule for elastic, snapshot consistency for
// snapshot, and abstract-operation linearizability against a sequential
// model. It exits non-zero on any violation, making it usable as a CI
// soak gate. The lrucache workload additionally runs the striped cache's
// exported structural validator (cache.Check) after the storm, so a run
// that survives the history checks but leaves a corrupt stripe — a
// broken CLOCK ring, a mis-routed key, a size cell off by one — still
// fails.
//
// Usage:
//
//	stormcheck [-workload skiplist|linkedlist|hashset|treemap|queue|cells|typedcells|bank|lrucache|persist|all]
//	           [-workers 4] [-ops 200] [-keys 32] [-seed 1]
//	           [-mix 60,25,15] [-duration 0] [-chaos 10] [-window 2]
//	           [-explore] [-crashpoints] [-shrink] [-selftest-corrupt] [-v]
//
// -mix weighs classic,elastic,snapshot. -duration overrides -ops with a
// wall-clock bound. -explore additionally runs the exhaustive
// tiny-interleaving suite. -crashpoints runs the exhaustive crash-point
// exploration: a seeded durable-WAL + checkpoint run is recorded op by
// op, then a power cut is simulated at EVERY filesystem operation
// boundary (plus torn-write variants) and recovery must restore an exact
// acked commit prefix. -shrink, on a
// failing storm, bisects the per-worker op sequences to a minimal
// still-failing schedule and prints it (plus its explorer-ready tiny
// case). -selftest-corrupt records the storm through a
// deliberately-broken recorder; the run MUST then fail, proving the
// checker is alive (the flag exists for tests and demos).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/storm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stormcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stormcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		workload = fs.String("workload", "all", "storm workload, or 'all'")
		workers  = fs.Int("workers", 4, "concurrent workers")
		ops      = fs.Int("ops", 200, "operations per worker")
		keys     = fs.Int("keys", 32, "key / cell range")
		seed     = fs.Uint64("seed", 1, "seed fixing every worker's operation sequence")
		mixFlag  = fs.String("mix", "60,25,15", "semantics mix weights: classic,elastic,snapshot")
		duration = fs.Duration("duration", 0, "run until this deadline instead of -ops")
		chaos    = fs.Int("chaos", 10, "% of ops preceded by a seeded scheduler perturbation (0 disables)")
		window   = fs.Int("window", 2, "elastic window size")
		explore  = fs.Bool("explore", false, "also run the exhaustive tiny-interleaving suite")
		crashpts = fs.Bool("crashpoints", false, "also run the exhaustive crash-point (power cut per fs op) exploration")
		corrupt  = fs.Bool("selftest-corrupt", false, "record through a broken recorder; the run must fail")
		shrink   = fs.Bool("shrink", false, "on a failing storm, bisect to a minimal failing schedule")
		verbose  = fs.Bool("v", false, "print per-violation detail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = storm.Workloads()
	}
	var failures int
	for _, name := range names {
		cfg := storm.Config{
			Workload: name,
			Workers:  *workers,
			Ops:      *ops,
			Keys:     *keys,
			Seed:     *seed,
			Mix:      mix,
			Duration: *duration,
			Chaos:    *chaos,
			Window:   *window,
		}
		if *corrupt {
			cfg.WrapRecorder = func(inner core.Recorder) core.Recorder {
				return storm.NewVersionSkewRecorder(inner, 5)
			}
		}
		rep, err := storm.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		if rerr := rep.Err(); rerr != nil {
			failures++
			if *verbose && rep.Verdict != nil {
				for _, e := range rep.Verdict.Errs {
					fmt.Fprintln(out, "  ", e)
				}
			}
			if *shrink && !*corrupt {
				res, serr := storm.Shrink(cfg, 3)
				switch {
				case serr != nil:
					fmt.Fprintln(out, "  shrink:", serr)
				case res == nil:
					fmt.Fprintln(out, "  shrink: failure did not recur")
				default:
					fmt.Fprintln(out, " ", res)
					fmt.Fprintln(out, "  shrunk failure:", res.Report.Err())
				}
			}
		}
	}

	if *explore {
		if err := runExplore(out); err != nil {
			return err
		}
	}

	if *crashpts {
		if err := runCrashPoints(out, *seed); err != nil {
			return err
		}
	}

	if *corrupt {
		if failures == 0 {
			return fmt.Errorf("selftest: the corrupted history passed the checker")
		}
		fmt.Fprintln(out, "selftest: corrupted history correctly rejected")
		return fmt.Errorf("selftest: %d corrupted run(s) rejected (expected failure)", failures)
	}
	if failures > 0 {
		return fmt.Errorf("%d workload(s) violated their guarantees", failures)
	}
	return nil
}

func runExplore(out io.Writer) error {
	var failed int
	for _, tc := range sched.TinyCases() {
		progs := make([]storm.TinyProgram, len(tc.Programs))
		for i, p := range tc.Programs {
			progs[i] = storm.TinyProgram{Sem: core.Classic, Accesses: p}
		}
		start := time.Now()
		rep, err := storm.ExploreTiny(tc.Name, progs)
		if err != nil {
			return err
		}
		status := "ok"
		if rerr := rep.Err(); rerr != nil {
			failed++
			status = "FAILED: " + rerr.Error()
		}
		fmt.Fprintf(out, "explore %-12s %3d schedules, %3d commits, %2d aborts in %v — %s\n",
			tc.Name, rep.Schedules, rep.Commits, rep.Aborts,
			time.Since(start).Round(time.Millisecond), status)
	}
	if failed > 0 {
		return fmt.Errorf("%d tiny case(s) failed exhaustive exploration", failed)
	}
	return nil
}

func runCrashPoints(out io.Writer, seed uint64) error {
	start := time.Now()
	rep, err := storm.ExploreCrashPoints("persist", storm.CrashPointConfig{Seed: int64(seed)})
	if err != nil {
		return err
	}
	status := "ok"
	rerr := rep.Err()
	if rerr != nil {
		status = "FAILED: " + rerr.Error()
	}
	fmt.Fprintf(out, "crashpoints %d commits, %d boundaries, %d crash images in %v — %s\n",
		rep.Commits, rep.Boundaries, rep.Images,
		time.Since(start).Round(time.Millisecond), status)
	return rerr
}

// parseMix parses "classic,elastic,snapshot" weights.
func parseMix(s string) (storm.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return storm.Mix{}, fmt.Errorf("mix %q: want three comma-separated weights", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return storm.Mix{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		vals[i] = v
	}
	if vals[0]+vals[1]+vals[2] == 0 {
		return storm.Mix{}, fmt.Errorf("mix %q: all weights zero", s)
	}
	return storm.Mix{Classic: vals[0], Elastic: vals[1], Snapshot: vals[2]}, nil
}
