package storm

import (
	"strings"
	"testing"
)

// TestPersistWALCrashAcrossClockSchemes is the WAL durability gate: the
// persist storm — whose check ends with a mid-batch kill of the
// group-commit daemon followed by a replay audit proving exactly the
// acked commit prefix survived — must hold. Run with -race. Both seeds
// run under the clock's name, so the second seed's subtest is gv1#01.
func TestPersistWALCrashAcrossClockSchemes(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		t.Run(clockName, func(t *testing.T) {
			rep, err := Run(Config{
				Workload: "persist",
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
			// The crash audit is part of the workload's check; a run
			// that never killed the daemon proves nothing, so the
			// notes must show lost commits.
			audited := false
			for _, n := range rep.Notes {
				if strings.Contains(n, "crash audit") && !strings.Contains(n, "0 lost") {
					audited = true
				}
			}
			if !audited {
				t.Fatalf("no non-vacuous crash audit in notes %q", rep.Notes)
			}
		})
	}
}
