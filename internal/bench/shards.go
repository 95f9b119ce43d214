package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// This file is the partitioned-store sweep: the paper's Collection
// workload shape — point updates and lookups plus a percentage of
// whole-structure atomic operations — measured behind one, two, four and
// eight clock domains (shard.Partition + shard.TreeMapOf). Worker key
// stripes are disjoint, so point operations never conflict on data; the
// cost that the partition actually divides is the whole-structure share:
// with one clock domain a "size"-class operation (here a snapshot scan
// counting the domain's entries) walks the entire store, while a 4-shard
// partition scopes it to one quarter — the same reason the single TM's
// pin watermark and reclamation loop stop scaling with store size. A
// second figure holds the shard count at four and sweeps the cross-shard
// mix ratio, pricing the 2PC coordinator against the fast path.

// ShardCounts is the shard-count axis of the disjoint-key sweep.
var ShardCounts = []int{1, 2, 4, 8}

// CrossMixPcts is the cross-shard mix axis, in percent of operations that
// become two-key cross-shard transactions.
var CrossMixPcts = []int{0, 2, 10, 25}

// CrossMixShards is the fixed shard count of the cross-mix figure.
const CrossMixShards = 4

// shardStats folds the per-shard TM counters of a partition.
func shardStats(p *shard.Partition) core.Stats {
	var out core.Stats
	for i := 0; i < p.Shards(); i++ {
		s := p.TM(i).Stats()
		out.Commits += s.Commits
		out.Attempts += s.Attempts
		out.Kills += s.Kills
		if out.Aborts == nil {
			out.Aborts = make(map[core.AbortReason]uint64)
		}
		for r, n := range s.Aborts {
			out.Aborts[r] += n
		}
	}
	return out
}

// shardPoint measures one (shard count, mix, threads) point over a
// freshly prepopulated sharded tree. Each worker draws keys from its own
// disjoint stripe. Per operation: crossPct% are two-key cross-shard
// read-modify-writes through AtomicallyAll; sweepPct% are whole-domain
// atomic scans (snapshot AscendTx over the drawn key's shard — the
// "size"-class operation of the paper's Collection benchmark, scoped to
// the clock domain that owns the key); of the rest, updatePct% are puts
// and the remainder gets.
func shardPoint(shards, size, threads, updatePct, sweepPct, crossPct int, dur time.Duration) (Result, error) {
	p := shard.New(shards)
	m := shard.NewTreeMapOf[int](p, core.Snapshot)
	for k := 0; k < size; k++ {
		if _, err := m.Put(k, k); err != nil {
			return Result{}, err
		}
	}
	impl := fmt.Sprintf("shards=%d", shards)
	if crossPct > 0 {
		impl = fmt.Sprintf("shards=%d,cross=%d%%", shards, crossPct)
	}
	before := shardStats(p)
	res := MeasureOps(impl, threads, dur, 0, func(worker int) func(*Xorshift) error {
		stride := size / threads
		if stride < 2 {
			stride = 2
		}
		base := (worker * stride) % size
		return func(rng *Xorshift) error {
			k := base + rng.Intn(stride)
			roll := int(rng.Next() % 100)
			if roll < crossPct {
				// Cross-shard read-modify-write over two stripe keys
				// (two keys of one stripe usually hash to different
				// shards, so worker write sets stay disjoint).
				k2 := base + rng.Intn(stride)
				return p.AtomicallyAll(func(mt *shard.MultiTx) error {
					v, _ := m.GetTx(mt, k)
					m.PutTx(mt, k2, v+1)
					return nil
				})
			}
			if roll < crossPct+sweepPct {
				// Whole-domain atomic scan: count the entries of the
				// drawn key's clock domain in one snapshot transaction.
				s := m.ShardFor(k)
				return p.Atomically(s, core.Snapshot, func(tx *core.Tx) error {
					n := 0
					m.Tree(s).AscendTx(tx, func(int, int) bool {
						n++
						return true
					})
					return nil
				})
			}
			if rng.Intn(100) < updatePct {
				_, err := m.Put(k, int(rng.Next()))
				return err
			}
			_, _, err := m.Get(k)
			return err
		}
	})
	after := shardStats(p)
	res.TxCommits = after.Commits - before.Commits
	res.TxAborts = after.TotalAborts() - before.TotalAborts()
	res.TxAttempts = after.Attempts - before.Attempts
	res.TxKills = after.Kills - before.Kills
	return res, nil
}

// RunShardSweep measures the partitioned store along both axes and, with
// rec non-nil, records two figures in the trajectory: "shard-sweep" (one
// disjoint-key series per shard count, Shards field set) and
// "shard-crossmix" (fixed CrossMixShards shards, one series per mix
// ratio, CrossPct field set). No sequential denominator — the claim is
// the ratio between the curves, led by 4-shard over 1-shard at the top of
// the thread sweep.
func RunShardSweep(w io.Writer, rec *JSONRun, size, updatePct, sweepPct int, threads []int, dur time.Duration) error {
	fmt.Fprintf(w, "shard sweep: %d-key tree, %d%% puts, %d%% whole-domain scans, disjoint worker stripes — ops/s per shard count\n",
		size, updatePct, sweepPct)
	fmt.Fprintf(w, "%8s", "threads")
	for _, sc := range ShardCounts {
		fmt.Fprintf(w, " %13s %7s", fmt.Sprintf("shards=%d/s", sc), "abort%")
	}
	fmt.Fprintln(w)
	series := make([]Series, len(ShardCounts))
	for i, sc := range ShardCounts {
		series[i].Impl = fmt.Sprintf("shards=%d", sc)
		series[i].Shards = sc
	}
	for _, th := range threads {
		fmt.Fprintf(w, "%8d", th)
		for i, sc := range ShardCounts {
			res, err := shardPoint(sc, size, th, updatePct, sweepPct, 0, dur)
			if err != nil {
				return err
			}
			series[i].Threads = append(series[i].Threads, th)
			series[i].Speedups = append(series[i].Speedups, 0)
			series[i].Raw = append(series[i].Raw, res)
			fmt.Fprintf(w, " %13.0f %6.1f%%", res.Throughput, 100*res.AbortRate())
		}
		fmt.Fprintln(w)
	}
	if rec != nil {
		rec.AddFigure("shard-sweep", series, Result{})
	}

	fmt.Fprintf(w, "\ncross-shard mix sweep: %d shards, ops/s as the 2PC share grows\n", CrossMixShards)
	fmt.Fprintf(w, "%8s", "threads")
	for _, pct := range CrossMixPcts {
		fmt.Fprintf(w, " %13s %7s", fmt.Sprintf("cross=%d%%/s", pct), "abort%")
	}
	fmt.Fprintln(w)
	mix := make([]Series, len(CrossMixPcts))
	for i, pct := range CrossMixPcts {
		mix[i].Impl = fmt.Sprintf("shards=%d,cross=%d%%", CrossMixShards, pct)
		mix[i].Shards = CrossMixShards
		mix[i].CrossPct = pct
	}
	for _, th := range threads {
		fmt.Fprintf(w, "%8d", th)
		for i, pct := range CrossMixPcts {
			res, err := shardPoint(CrossMixShards, size, th, updatePct, 0, pct, dur)
			if err != nil {
				return err
			}
			mix[i].Threads = append(mix[i].Threads, th)
			mix[i].Speedups = append(mix[i].Speedups, 0)
			mix[i].Raw = append(mix[i].Raw, res)
			fmt.Fprintf(w, " %13.0f %6.1f%%", res.Throughput, 100*res.AbortRate())
		}
		fmt.Fprintln(w)
	}
	if rec != nil {
		rec.AddFigure("shard-crossmix", mix, Result{})
	}
	return nil
}
