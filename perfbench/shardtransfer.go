package main

import (
	"repro/internal/core"
	"repro/internal/shard"
)

// shardTransfer moves money between accounts spread over a partition of
// shardCount TMs: pairs on two shards commit through AtomicallyAll (2PC),
// pairs on one shard through the Partition.Atomically fast path.
type shardTransfer struct {
	p        *shard.Partition
	accounts []*core.TypedCell[int]
	home     []int // account -> shard
	// marked is the summed TM counters at mark time, for shard.abort_rate.
	marked core.Stats
}

func setupShardTransfer(_ string, _ bool) (instance, error) {
	w := &shardTransfer{
		p:        shard.New(shardCount),
		accounts: make([]*core.TypedCell[int], shardAccounts),
		home:     make([]int, shardAccounts),
	}
	byShard := make([][]int, shardCount)
	for i := range w.accounts {
		s := w.p.ShardForKey(i)
		w.home[i] = s
		w.accounts[i] = core.NewTypedCell(w.p.TM(s), 0)
		byShard[s] = append(byShard[s], i)
	}
	// Accounts open empty and are funded transactionally, a chunk of one
	// shard's accounts per transaction.
	for s, ids := range byShard {
		for lo := 0; lo < len(ids); lo += prefillChunk {
			err := w.p.Atomically(s, core.Classic, func(tx *core.Tx) error {
				for _, i := range ids[lo:min(lo+prefillChunk, len(ids))] {
					w.accounts[i].Store(tx, shardInitialBal)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *shardTransfer) do(c *client, o op) (int, error) {
	from, to := w.accounts[o.key], w.accounts[o.key2]
	sf, st := w.home[o.key], w.home[o.key2]
	if sf == st {
		return 1, c.atomically(w.p.TM(sf), func(tx *core.Tx) error {
			from.Store(tx, from.Load(tx)-o.amount)
			to.Store(tx, to.Load(tx)+o.amount)
			return nil
		})
	}
	return 0, c.atomicallyAll(w.p, func(mt *shard.MultiTx) error {
		tf, tt := mt.Shard(sf), mt.Shard(st)
		from.Store(tf, from.Load(tf)-o.amount)
		to.Store(tt, to.Load(tt)+o.amount)
		return nil
	})
}

func (w *shardTransfer) stats() core.Stats {
	var out core.Stats
	out.Aborts = map[core.AbortReason]uint64{}
	for i := 0; i < w.p.Shards(); i++ {
		s := w.p.TM(i).Stats()
		out.Commits += s.Commits
		out.Attempts += s.Attempts
		for r, n := range s.Aborts {
			out.Aborts[r] += n
		}
	}
	return out
}

func (w *shardTransfer) mark() { w.marked = w.stats() }

// finish checks that the transfers conserved the total balance, reading
// each shard's accounts in one snapshot transaction once the clients
// have stopped.
func (w *shardTransfer) finish(rep *report) error {
	rep.printf("config: clock=%s shards=%d accounts=%d max_amount=%d wal=none cache=none",
		w.p.TM(0).ClockScheme(), shardCount, shardAccounts, shardMaxAmount)
	total := 0
	for s := 0; s < w.p.Shards(); s++ {
		var sum int
		err := w.p.Atomically(s, core.Snapshot, func(tx *core.Tx) error {
			sum = 0
			for i, a := range w.accounts {
				if w.home[i] == s {
					sum += a.Load(tx)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		total += sum
	}
	if want := shardAccounts * shardInitialBal; total != want {
		rep.fail("balances sum to %d after the run, want %d", total, want)
	}
	now := w.stats()
	before := w.marked
	attempts := now.Attempts - before.Attempts
	aborts := now.TotalAborts() - before.TotalAborts()
	rep.set("shard.abort_rate", ratio(float64(aborts), float64(attempts)), "ratio")
	rep.printf("shard: total_balance=%d conserved=%v abort_rate=%.5f (aborts=%d attempts=%d over %d TMs)",
		total, total == shardAccounts*shardInitialBal, ratio(float64(aborts), float64(attempts)), aborts, attempts, w.p.Shards())
	return nil
}

func (w *shardTransfer) close() {}
