package storm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPrivatizeStormAcrossClockSchemes is the privatization gate: the
// privatize storm — fenced map mutations interleaved with quiescence
// detach cycles whose plain frozen reads are checked against the model
// EXACTLY at the detach epoch — must hold. Run with -race: the frozen
// reads are plain loads racing the committers unless the barrier really
// drained them.
func TestPrivatizeStormAcrossClockSchemes(t *testing.T) {
	for _, seed := range []uint64{5, 11} {
		t.Run(fmt.Sprintf("%s/seed=%d", clockName, seed), func(t *testing.T) {
			rep, err := Run(Config{
				Workload: "privatize",
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
			// A run that never detached proves nothing: the notes
			// must show cycles and frozen reads.
			cycled := false
			for _, n := range rep.Notes {
				if strings.Contains(n, "detach cycles") && !strings.Contains(n, "0 detach cycles") {
					cycled = true
				}
			}
			if !cycled {
				t.Fatalf("no non-vacuous detach cycles in notes %q", rep.Notes)
			}
		})
	}
}

// TestExploreDetachCommitRace is the tiny-interleaving explorer for the
// detach barrier: one committer writes cells a and b behind a
// transactional fence; a detach is raced against it paused at every
// access boundary of its attempt (before begin, after the fence read,
// between the two stores, after both stores, after commit). Whatever the
// boundary, the privatized view must be whole: the commit is either
// admitted entirely before the epoch (both new values) or excluded
// entirely (both old) — never torn — and in race builds LoadDetached
// itself panics if a frozen read ever surfaces a record newer than the
// epoch.
func TestExploreDetachCommitRace(t *testing.T) {
	const boundaries = 5
	for k := 0; k < boundaries; k++ {
		k := k
		t.Run(fmt.Sprintf("boundary=%d", k), func(t *testing.T) {
			tm := core.New()
			a := core.NewTypedCell(tm, 0)
			b := core.NewTypedCell(tm, 0)
			fence := core.NewTypedCell(tm, false)

			reached := make(chan struct{})
			release := make(chan struct{})
			paused := false // first attempt pauses; retries run free
			pause := func(i int) {
				if i == k && !paused {
					paused = true
					close(reached)
					<-release
				}
			}

			var admitted bool
			commit := func() {
				err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					pause(1)
					if fence.Load(tx) {
						admitted = false
						return nil
					}
					pause(2)
					a.Store(tx, 7)
					pause(3)
					b.Store(tx, 7)
					admitted = true
					return nil
				})
				if err != nil {
					t.Errorf("committer: %v", err)
				}
				pause(4)
			}

			setFence := func() {
				if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					fence.Store(tx, true)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			var p *core.Private
			var err error
			if k == 0 {
				// Boundary 0: detach completes before the committer begins.
				setFence()
				if p, err = tm.Privatize(); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { defer wg.Done(); commit() }()
				close(release)
				wg.Wait()
			} else {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { defer wg.Done(); commit() }()
				<-reached
				// The committer is parked mid-attempt at boundary k. Commit
				// the fence (the parked transaction holds no locks), start
				// the detach — its barrier must wait out the parked attempt
				// for boundaries inside the transaction — then release.
				setFence()
				done := make(chan error, 1)
				go func() {
					pp, derr := tm.Privatize()
					p = pp
					done <- derr
				}()
				close(release)
				if err = <-done; err != nil {
					t.Fatal(err)
				}
				wg.Wait()
			}

			if core.PrivatizeGuardsEnabled {
				a.MarkDetached(p)
				b.MarkDetached(p)
			}
			got := [2]int{a.LoadDetached(p), b.LoadDetached(p)}
			if got[0] != got[1] {
				t.Fatalf("boundary %d: torn privatized view: a=%d b=%d", k, got[0], got[1])
			}
			if admitted && got[0] != 7 {
				t.Fatalf("boundary %d: commit admitted but frozen view shows %d", k, got[0])
			}
			if !admitted && got[0] != 0 {
				t.Fatalf("boundary %d: commit excluded but frozen view shows %d", k, got[0])
			}
			p.Republish()

			// After republish the cells are live again; a re-run of the
			// committer with the fence cleared must land.
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				fence.Store(tx, false)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				a.Store(tx, 9)
				b.Store(tx, 9)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExploreDetachCommitRaceUnsynced is the free-running sibling: many
// rounds of a committer racing the fence+detach with no pause points at
// all. Every round's frozen view must still be whole (a == b) — this is
// the probabilistic sweep the boundary-pinned cases anchor, and under
// -race it doubles as a data-race probe on the plain frozen loads.
func TestExploreDetachCommitRaceUnsynced(t *testing.T) {
	const rounds = 60
	tm := core.New()
	a := core.NewTypedCell(tm, 0)
	b := core.NewTypedCell(tm, 0)
	fence := core.NewTypedCell(tm, false)

	for r := 1; r <= rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
				if fence.Load(tx) {
					return nil
				}
				a.Store(tx, r)
				b.Store(tx, r)
				return nil
			})
		}(r)

		if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
			fence.Store(tx, true)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		if core.PrivatizeGuardsEnabled {
			a.MarkDetached(p)
			b.MarkDetached(p)
		}
		va, vb := a.LoadDetached(p), b.LoadDetached(p)
		if va != vb {
			t.Fatalf("round %d: torn privatized view: a=%d b=%d", r, va, vb)
		}
		p.Republish()
		if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
			fence.Store(tx, false)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
