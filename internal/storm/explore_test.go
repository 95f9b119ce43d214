package storm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sched"
)

func classicPrograms(tc sched.TinyCase) []TinyProgram {
	out := make([]TinyProgram, len(tc.Programs))
	for i, p := range tc.Programs {
		out[i] = TinyProgram{Sem: core.Classic, Accesses: p}
	}
	return out
}

// TestExploreTinyCasesClassic drives the live runtime through EVERY
// interleaving of each canonical tiny case under all-classic semantics:
// each schedule's recorded history must pass the verdict and land on a
// serially-explainable final state.
func TestExploreTinyCasesClassic(t *testing.T) {
	for _, tc := range sched.TinyCases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			rep, err := ExploreTiny(tc.Name, classicPrograms(tc))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Schedules == 0 {
				t.Fatal("no schedules enumerated")
			}
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExploreFigure4Count pins the enumeration to the paper's numbers: the
// Figure 4 construction has exactly 20 interleavings.
func TestExploreFigure4Count(t *testing.T) {
	rep, err := ExploreTiny("figure4", classicPrograms(sched.TinyCases()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != 20 {
		t.Fatalf("figure4 has %d interleavings, want 20", rep.Schedules)
	}
}

// TestExploreGateForcesConflicts proves the gate really drives the
// interleavings: the lost-update case contains schedules (r1 r2 w1 w2 and
// r2 r1 w2 w1 …) in which a classic runtime MUST abort one attempt, so an
// exploration with zero aborts means the schedules were not followed.
func TestExploreGateForcesConflicts(t *testing.T) {
	var lostUpdate sched.TinyCase
	for _, tc := range sched.TinyCases() {
		if tc.Name == "lost-update" {
			lostUpdate = tc
		}
	}
	rep, err := ExploreTiny(lostUpdate.Name, classicPrograms(lostUpdate))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Aborts == 0 {
		t.Fatalf("lost-update exploration saw no aborts across %d schedules; the gate is not driving the interleavings", rep.Schedules)
	}
	if rep.Commits < uint64(2*rep.Schedules) {
		t.Fatalf("only %d commits across %d schedules; some program never committed", rep.Commits, rep.Schedules)
	}
}

// TestExploreTinyAcrossClockSchemes drives a crossed write-skew case (each
// program reads one location and writes the other) through every
// interleaving. It is the shape that breaks if a commit ever skipped read
// validation without the wv == rv+1 proof that no commit intervened.
func TestExploreTinyAcrossClockSchemes(t *testing.T) {
	progs := []TinyProgram{
		{Sem: core.Classic, Accesses: []history.Access{
			{Kind: history.OpRead, Loc: "x"}, {Kind: history.OpWrite, Loc: "y"},
		}},
		{Sem: core.Classic, Accesses: []history.Access{
			{Kind: history.OpRead, Loc: "y"}, {Kind: history.OpWrite, Loc: "x"},
		}},
	}
	t.Run(clockName, func(t *testing.T) {
		rep, err := ExploreTiny("crossed-write-skew", progs)
		if err != nil {
			t.Fatal(err)
		}
		if rerr := rep.Err(); rerr != nil {
			t.Fatalf("exhaustive exploration failed: %v", rerr)
		}
		if rep.Schedules == 0 || rep.Commits == 0 {
			t.Fatalf("degenerate exploration %+v", rep)
		}
	})
}

// TestExploreMixedSemantics re-runs the cases with read-only programs
// under snapshot and elastic labels: the polymorphic runtime must keep
// every guarantee in every interleaving, whatever the mix.
func TestExploreMixedSemantics(t *testing.T) {
	for _, tc := range sched.TinyCases() {
		tc := tc
		for _, sem := range []core.Semantics{core.Snapshot, core.Elastic} {
			progs := make([]TinyProgram, len(tc.Programs))
			relabeled := false
			for i, p := range tc.Programs {
				s := core.Classic
				if readOnlyProgram(p) {
					s = sem
					relabeled = true
				}
				progs[i] = TinyProgram{Sem: s, Accesses: p}
			}
			if !relabeled {
				continue
			}
			t.Run(tc.Name+"/"+sem.String(), func(t *testing.T) {
				rep, err := ExploreTiny(tc.Name, progs)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func readOnlyProgram(p []history.Access) bool {
	for _, a := range p {
		if a.Kind == history.OpWrite {
			return false
		}
	}
	return true
}

// TestExploreRejectsSnapshotWriter: snapshot programs must be read-only.
func TestExploreRejectsSnapshotWriter(t *testing.T) {
	_, err := ExploreTiny("bad", []TinyProgram{{
		Sem:      core.Snapshot,
		Accesses: []history.Access{{Kind: history.OpWrite, Loc: "x"}},
	}})
	if err == nil {
		t.Fatal("snapshot writer accepted")
	}
}

// TestExploreLimits: the exhaustive mode refuses workloads too large to
// enumerate.
func TestExploreLimits(t *testing.T) {
	big := make([]history.Access, maxTinyAccesses+1)
	for i := range big {
		big[i] = history.Access{Kind: history.OpRead, Loc: "x"}
	}
	if _, err := ExploreTiny("big", []TinyProgram{{Sem: core.Classic, Accesses: big}}); err == nil {
		t.Fatal("oversized case accepted")
	}
	if _, err := ExploreTiny("none", nil); err == nil {
		t.Fatal("empty case accepted")
	}
}
