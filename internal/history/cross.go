package history

import (
	"fmt"
	"sort"
)

// This file checks the 2PC coordinator's global decision order against the
// per-shard serialization orders of a partitioned (multi-TM) execution.
// The property under test is the one that makes cross-shard commits
// globally serializable: on every shard, the write versions of
// cross-shard commits — the per-shard serialization points, drawn from
// that shard's own clock — must appear in exactly the order the
// coordinator decided. The coordinator constructs that by drawing all
// versions for one decision under its decision mutex, in canonical shard
// order (sequential draws from one clock are strictly increasing); this
// check verifies the construction against what the shards actually
// recorded.

// CrossPart is one shard's participation in a committed cross-shard
// transaction.
type CrossPart struct {
	Shard    int
	TxID     uint64 // sub-transaction ID within that shard's TM
	Version  uint64 // write version installed on the shard; 0 if read-only
	ReadOnly bool
}

// CrossDecision is one committed cross-shard transaction as the
// coordinator decided it: a global sequence number and the per-shard
// participants.
type CrossDecision struct {
	Seq   uint64
	Parts []CrossPart
}

// CheckCrossShardOrders verifies a partitioned execution's cross-shard
// commits against the coordinator's decision log. logs maps shard index to
// that shard's analyzed execution. Three properties are enforced:
//
//  1. every participant the coordinator committed actually committed on
//     its shard (it appears in the shard's log, with matching update/
//     read-only role);
//  2. each updating participant's recorded serialization point
//     (TxExec.CommitVer) equals the version the coordinator logged;
//  3. per shard, the versions of updating participants are strictly
//     increasing in decision order — i.e. the shard's serialization
//     order, restricted to cross-shard commits, is exactly the
//     coordinator's global order.
//
// checked counts the per-shard order pairs compared under property 3;
// callers gate on it to keep the check non-vacuous (a run with fewer than
// two cross-shard commits per shard proves nothing).
func CheckCrossShardOrders(logs map[int]*ExecLog, decisions []CrossDecision) (checked int, err error) {
	byShard := make(map[int]map[uint64]*TxExec, len(logs))
	for shard, l := range logs {
		idx := make(map[uint64]*TxExec, len(l.Txs))
		for i := range l.Txs {
			idx[l.Txs[i].ID] = &l.Txs[i]
		}
		byShard[shard] = idx
	}

	ordered := make([]CrossDecision, len(decisions))
	copy(ordered, decisions)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Seq == ordered[i-1].Seq {
			return checked, fmt.Errorf("cross: duplicate decision seq %d", ordered[i].Seq)
		}
	}

	lastVer := make(map[int]uint64) // shard -> last cross write version seen
	lastSeq := make(map[int]uint64) // shard -> decision that produced it
	for _, d := range ordered {
		for _, p := range d.Parts {
			txs, ok := byShard[p.Shard]
			if !ok {
				return checked, fmt.Errorf("cross: decision %d names shard %d with no execution log", d.Seq, p.Shard)
			}
			tx, ok := txs[p.TxID]
			if !ok {
				return checked, fmt.Errorf("cross: decision %d committed tx %d on shard %d, but the shard never recorded that commit",
					d.Seq, p.TxID, p.Shard)
			}
			if p.ReadOnly {
				if tx.HasWrites {
					return checked, fmt.Errorf("cross: decision %d logged tx %d on shard %d read-only, shard recorded writes",
						d.Seq, p.TxID, p.Shard)
				}
				continue
			}
			if !tx.HasWrites {
				return checked, fmt.Errorf("cross: decision %d logged tx %d on shard %d as updating, shard recorded it read-only",
					d.Seq, p.TxID, p.Shard)
			}
			if tx.CommitVer != p.Version {
				return checked, fmt.Errorf("cross: decision %d tx %d on shard %d: coordinator logged version %d, shard serialized at %d",
					d.Seq, p.TxID, p.Shard, p.Version, tx.CommitVer)
			}
			if prev, seen := lastVer[p.Shard]; seen {
				checked++
				if p.Version <= prev {
					return checked, fmt.Errorf("cross: shard %d serialization order inverts the decision order: decision %d installed version %d after decision %d installed %d",
						p.Shard, d.Seq, p.Version, lastSeq[p.Shard], prev)
				}
			}
			lastVer[p.Shard] = p.Version
			lastSeq[p.Shard] = d.Seq
		}
	}
	return checked, nil
}
