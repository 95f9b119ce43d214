package storm

import (
	"fmt"
	"strings"
	"testing"
)

// TestCacheStormAcrossClockSchemes is the striped-cache gate: the
// lrucache storm — touching gets, snapshot peeks, evicting puts and
// length folds over a 4-stripe second-chance cache — must hold, with the
// per-stripe structural invariants and the folded evictions = inserts −
// len identity checked at the end, non-vacuously: the run must have hit,
// missed, evicted AND demoted (a zero demotion count would mean the CLOCK
// sweep never spared anyone and the second-chance path went unexercised).
// Run with -race: touches rewrite recycled version records while other
// transactions traverse the same stripe.
func TestCacheStormAcrossClockSchemes(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		t.Run(fmt.Sprintf("%s/seed=%d", clockName, seed), func(t *testing.T) {
			rep, err := Run(Config{
				Workload: "lrucache",
				Workers:  6,
				Ops:      200,
				Keys:     32,
				Seed:     seed,
				Chaos:    10,
			})
			if err != nil {
				t.Fatalf("config: %v", err)
			}
			if rerr := rep.Err(); rerr != nil {
				t.Fatal(rerr)
			}
			// The workload's checker already fails vacuous runs; pin
			// here that the report surfaces the evidence — eviction
			// and demotion counts and the per-stripe hit rates.
			var rates, counts bool
			for _, n := range rep.Notes {
				if strings.Contains(n, "per-stripe hit-rate") {
					rates = true
				}
				if strings.Contains(n, "evictions") && strings.Contains(n, "demotions") &&
					!strings.Contains(n, " 0 evictions") && !strings.Contains(n, " 0 demotions") {
					counts = true
				}
			}
			if !rates || !counts {
				t.Fatalf("notes missing per-stripe rates or non-zero eviction/demotion counts: %q", rep.Notes)
			}
		})
	}
}
