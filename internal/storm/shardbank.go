package storm

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/shard"
)

// shardbank is the partitioned-store storm: the bank invariant spread
// across a 4-shard Partition. Accounts live round-robin on the shards;
// same-shard transfers take the single-TM fast path, cross-shard ones go
// through the 2PC coordinator, and whole-state audits read every shard in
// one cross-shard read-only transaction — so every committed audit must
// observe EXACTLY the invariant total, across four independent clocks.
//
// Verification is layered: (1) every recorded audit saw the total and no
// account overdrew; (2) each shard's own recorded history passes
// CheckVerdict (per-shard opacity, against that shard's clock); (3) the
// coordinator's decision log matches each shard's serialization order —
// history.CheckCrossShardOrders — proving cross-shard commits serialize
// in one global order on every shard they touched.
const shardBankShards = 4

type shardBankWorkload struct {
	p        *shard.Partition
	cols     []*history.RingCollector
	accounts []*core.TypedCell[int]
	homes    []int
	total    int

	crossTransfers atomic.Int64
	fastTransfers  atomic.Int64
	audits         atomic.Int64
	orderPairs     int
	decisions      int
}

func newShardBankWorkload(tm *core.TM, keys int) *shardBankWorkload {
	// The partition's shards each get their own clock and their own
	// recorder — per-shard histories are checked against per-shard clocks.
	w := &shardBankWorkload{
		cols:     make([]*history.RingCollector, shardBankShards),
		accounts: make([]*core.TypedCell[int], keys),
		homes:    make([]int, keys),
		total:    100 * keys,
	}
	w.p = shard.NewWith(shardBankShards, func(i int) []core.Option {
		w.cols[i] = history.NewRingCollector(history.NewShardedCollector())
		return []core.Option{core.WithRecorder(w.cols[i])}
	})
	w.p.EnableAudit()
	for i := range w.accounts {
		w.homes[i] = i % shardBankShards
		w.accounts[i] = core.NewTypedCell(w.p.TM(w.homes[i]), 100)
	}
	return w
}

func (w *shardBankWorkload) name() string { return "shardbank" }

func (w *shardBankWorkload) prepopulate(*rand.Rand) ([]OpRecord, error) { return nil, nil }

// step: 85% conditional transfers (fast path when both accounts share a
// shard, 2PC otherwise), 15% global audits. All Classic — the cross-shard
// path supports no other semantics, and mixing labels across clock
// domains is exactly what the partition forbids.
func (w *shardBankWorkload) step(rng *rand.Rand, _ Mix) (OpRecord, error) {
	if rng.Intn(100) < 85 {
		from := rng.Intn(len(w.accounts))
		to := rng.Intn(len(w.accounts))
		for to == from {
			to = rng.Intn(len(w.accounts))
		}
		amount := 1 + rng.Intn(60)
		var observed int
		var performed bool
		var err error
		if w.homes[from] == w.homes[to] {
			w.fastTransfers.Add(1)
			err = w.p.Atomically(w.homes[from], core.Classic, func(tx *core.Tx) error {
				observed = w.accounts[from].Load(tx)
				performed = observed >= amount
				if performed {
					tv := w.accounts[to].Load(tx)
					w.accounts[from].Store(tx, observed-amount)
					w.accounts[to].Store(tx, tv+amount)
				}
				return nil
			})
		} else {
			w.crossTransfers.Add(1)
			err = w.p.AtomicallyAll(func(m *shard.MultiTx) error {
				ftx := m.Shard(w.homes[from])
				observed = w.accounts[from].Load(ftx)
				performed = observed >= amount
				if performed {
					ttx := m.Shard(w.homes[to])
					tv := w.accounts[to].Load(ttx)
					w.accounts[from].Store(ftx, observed-amount)
					w.accounts[to].Store(ttx, tv+amount)
				}
				return nil
			})
		}
		return OpRecord{Sem: core.Classic,
			Ops: []Op{{Kind: OpTransfer, Key: from, Val: to, Int: amount, Bool: performed, Aux: observed}}}, err
	}
	// Global audit: one cross-shard read-only transaction over all four
	// clock domains. Its reads are locked from prepare to decision, so the
	// sum is one consistent global cut — it must be exact.
	w.audits.Add(1)
	var sum, min int
	err := w.p.AtomicallyAll(func(m *shard.MultiTx) error {
		sum = 0
		min = int(^uint(0) >> 1)
		for i, c := range w.accounts {
			v := c.Load(m.Shard(w.homes[i]))
			sum += v
			if v < min {
				min = v
			}
		}
		return nil
	})
	return OpRecord{Sem: core.Classic, Ops: []Op{{Kind: OpSum, Int: sum, Aux: min}}}, err
}

func (w *shardBankWorkload) check(_ *history.ExecLog, recs []OpRecord) error {
	// (1) Every committed audit observed the invariant total, and the
	// conditional transfers never overdrew an account.
	for _, r := range recs {
		for _, op := range r.Ops {
			switch op.Kind {
			case OpSum:
				if op.Int != w.total {
					return fmt.Errorf("shardbank: cross-shard audit saw total %d, want %d — conservation broken",
						op.Int, w.total)
				}
				if op.Aux < 0 {
					return fmt.Errorf("shardbank: audit saw negative balance %d", op.Aux)
				}
			case OpTransfer:
				if op.Bool && op.Aux < op.Int {
					return fmt.Errorf("shardbank: transfer moved %d from account %d holding %d",
						op.Int, op.Key, op.Aux)
				}
			}
		}
	}
	// (2) Final conservation, read directly.
	sum := 0
	for i := range w.accounts {
		var v int
		if err := w.p.Atomically(w.homes[i], core.Classic, func(tx *core.Tx) error {
			v = w.accounts[i].Load(tx)
			return nil
		}); err != nil {
			return err
		}
		sum += v
	}
	if sum != w.total {
		return fmt.Errorf("shardbank: final sum %d, want %d", sum, w.total)
	}
	// (3) Per-shard histories: each shard's log must pass the full
	// verdict against its own clock.
	logs := make(map[int]*history.ExecLog, len(w.cols))
	for i, col := range w.cols {
		log, err := history.Analyze(col.Events())
		if err != nil {
			return fmt.Errorf("shardbank: shard %d analyze: %w", i, err)
		}
		if v := log.CheckVerdict(2); !v.OK() {
			return fmt.Errorf("shardbank: shard %d history: %w", i, v.Err())
		}
		logs[i] = log
	}
	// (4) The coordinator's global decision order against each shard's
	// serialization order — and the check must not be vacuous.
	checked, err := history.CheckCrossShardOrders(logs, w.p.Decisions())
	if err != nil {
		return fmt.Errorf("shardbank: %w", err)
	}
	w.orderPairs = checked
	w.decisions = len(w.p.Decisions())
	if checked == 0 && w.crossTransfers.Load() >= 2 {
		return fmt.Errorf("shardbank: order check vacuous (%d cross transfers ran, 0 order pairs)",
			w.crossTransfers.Load())
	}
	return nil
}

// stats folds the per-shard TM counters for the harness report (the
// harness TM itself runs nothing in this workload).
func (w *shardBankWorkload) stats() core.Stats {
	out := core.Stats{Aborts: make(map[core.AbortReason]uint64)}
	for i := 0; i < w.p.Shards(); i++ {
		s := w.p.TM(i).Stats()
		out.Commits += s.Commits
		out.ReadOnlyCommits += s.ReadOnlyCommits
		out.Attempts += s.Attempts
		out.Cuts += s.Cuts
		out.SnapshotOldReads += s.SnapshotOldReads
		out.Kills += s.Kills
		out.Extensions += s.Extensions
		out.SnapshotPins += s.SnapshotPins
		out.Privatizations += s.Privatizations
		for r, n := range s.Aborts {
			out.Aborts[r] += n
		}
	}
	return out
}

func (w *shardBankWorkload) notes() []string {
	return []string{fmt.Sprintf("cross=%d fast=%d audits=%d decisions=%d order-pairs=%d",
		w.crossTransfers.Load(), w.fastTransfers.Load(), w.audits.Load(), w.decisions, w.orderPairs)}
}
