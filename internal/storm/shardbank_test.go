package storm

import (
	"fmt"
	"strings"
	"testing"
)

// TestShardBankStormAcrossClockSchemes is the shard gate: cross-shard
// transfers and global audits over a 4-shard partition must conserve the
// bank total, every shard's recorded history must pass its own verdict,
// and the coordinator's decision order must match each shard's
// serialization order — non-vacuously. Run with -race.
func TestShardBankStormAcrossClockSchemes(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		t.Run(fmt.Sprintf("%s/seed=%d", clockName, seed), func(t *testing.T) {
			rep, err := Run(Config{
				Workload: "shardbank",
				Workers:  6,
				Ops:      150,
				Keys:     24,
				Seed:     seed,
				Chaos:    10,
			})
			if err != nil {
				t.Fatalf("config: %v", err)
			}
			if rerr := rep.Err(); rerr != nil {
				t.Fatal(rerr)
			}
			// The run must actually have exercised the cross path and
			// produced order pairs to compare.
			nonVacuous := false
			for _, n := range rep.Notes {
				if strings.Contains(n, "order-pairs=") && !strings.Contains(n, "order-pairs=0") {
					nonVacuous = true
				}
			}
			if !nonVacuous {
				t.Fatalf("cross-shard order check was vacuous: notes %q", rep.Notes)
			}
		})
	}
}
