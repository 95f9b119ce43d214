package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/txstruct"
)

// This file is the privatization read-path sweep: the same prepopulated
// ordered map read three ways — classic transactions (full STM tax:
// per-read version sampling and commit-time validation), snapshot-pinned
// transactions (no validation, but still a transaction per batch of
// reads with multi-version lookups), and privatized plain reads (the
// structure detached behind the quiescence barrier, every lookup a bare
// pointer walk: no transaction, no sampling, zero allocations). The
// ratio between the last two is the price of keeping the STM in the
// loop for read bursts — the number TM.Privatize exists to delete.

// ReadPathModes names the three read paths in sweep order.
var ReadPathModes = []string{"classic-read", "snapshot-pinned", "privatized-plain"}

// readPathPoint measures one (mode, threads) point over a fresh
// prepopulated map. Lookup keys are drawn uniformly from twice the
// populated range, so roughly half the probes hit.
func readPathPoint(mode string, size, threads int, dur time.Duration) (Result, error) {
	tm := core.New()
	m := txstruct.NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < size; k++ {
		if _, err := m.Put(k, k); err != nil {
			return Result{}, err
		}
	}
	keyRange := 2 * size
	before := tm.Stats()
	var res Result
	switch mode {
	case "classic-read":
		res = MeasureOps(mode, threads, dur, 0, func(int) func(*Xorshift) error {
			return func(rng *Xorshift) error {
				k := rng.Intn(keyRange)
				return tm.Atomically(core.Classic, func(tx *core.Tx) error {
					m.GetTx(tx, k)
					return nil
				})
			}
		})
	case "snapshot-pinned":
		pin, err := tm.PinSnapshot()
		if err != nil {
			return Result{}, err
		}
		defer pin.Release()
		res = MeasureOps(mode, threads, dur, 0, func(int) func(*Xorshift) error {
			return func(rng *Xorshift) error {
				k := rng.Intn(keyRange)
				return pin.Atomically(func(tx *core.Tx) error {
					m.GetTx(tx, k)
					return nil
				})
			}
		})
	case "privatized-plain":
		d, err := m.Detach()
		if err != nil {
			return Result{}, err
		}
		defer d.Republish()
		res = MeasureOps(mode, threads, dur, 0, func(int) func(*Xorshift) error {
			return func(rng *Xorshift) error {
				d.Get(rng.Intn(keyRange))
				return nil
			}
		})
	default:
		return Result{}, fmt.Errorf("readpath: unknown mode %q", mode)
	}
	after := tm.Stats()
	res.TxCommits = after.Commits - before.Commits
	res.TxAborts = after.TotalAborts() - before.TotalAborts()
	res.TxAttempts = after.Attempts - before.Attempts
	return res, nil
}

// RunReadPathSweep measures every read path across the thread counts and
// prints the lookup throughput plus the privatized-over-pinned ratio per
// point. With rec non-nil the points land in the trajectory under the
// "read-path" figure, one series per mode (no sequential denominator —
// the ratio column is the figure's claim).
func RunReadPathSweep(w io.Writer, rec *JSONRun, size int, threads []int, dur time.Duration) error {
	fmt.Fprintf(w, "read-path sweep: %d-element map, uniform lookups over twice the range (~50%% hits)\n", size)
	fmt.Fprintf(w, "%8s %16s %16s %16s %12s\n", "threads", "classic/s", "pinned/s", "privatized/s", "priv/pinned")
	series := make([]Series, len(ReadPathModes))
	for i, mode := range ReadPathModes {
		series[i].Impl = mode
	}
	for _, th := range threads {
		row := make([]Result, len(ReadPathModes))
		for i, mode := range ReadPathModes {
			res, err := readPathPoint(mode, size, th, dur)
			if err != nil {
				return err
			}
			row[i] = res
			series[i].Threads = append(series[i].Threads, th)
			series[i].Speedups = append(series[i].Speedups, 0)
			series[i].Raw = append(series[i].Raw, res)
		}
		ratio := 0.0
		if row[1].Throughput > 0 {
			ratio = row[2].Throughput / row[1].Throughput
		}
		fmt.Fprintf(w, "%8d %16.0f %16.0f %16.0f %11.1fx\n",
			th, row[0].Throughput, row[1].Throughput, row[2].Throughput, ratio)
	}
	if rec != nil {
		rec.AddFigure("read-path", series, Result{})
	}
	return nil
}
