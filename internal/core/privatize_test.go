package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQuiescerBarrierDrains exercises the quiescer directly: a barrier
// returns immediately when nothing is registered, blocks while an
// attempt is in flight, and admits attempts registered after its flip
// without waiting for them.
func TestQuiescerBarrierDrains(t *testing.T) {
	var q quiescer
	q.barrier() // nothing in flight: must not block

	tok := q.enter(3)
	done := make(chan struct{})
	go func() {
		q.barrier()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("barrier returned while an old-generation attempt was registered")
	case <-time.After(20 * time.Millisecond):
	}
	// A post-flip attempt lands on the new side and must not extend the
	// drain.
	tok2 := q.enter(7)
	q.exit(tok)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier did not return after the old-generation attempt exited")
	}
	q.exit(tok2)
	q.barrier() // drains the second attempt's side; must not block now
}

// TestPrivatizeDrainsInFlight holds a transaction open inside its
// closure and asserts Privatize blocks until it finishes — the
// quiescence barrier at work through the public API.
func TestPrivatizeDrainsInFlight(t *testing.T) {
	tm := New()
	v := NewTypedCell(tm, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	txDone := make(chan struct{})
	go func() {
		defer close(txDone)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			v.Store(tx, 2)
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	privDone := make(chan *Private, 1)
	go func() {
		p, err := tm.Privatize()
		if err != nil {
			t.Error(err)
		}
		privDone <- p
	}()
	select {
	case <-privDone:
		t.Fatal("Privatize returned while a transaction was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-txDone
	var p *Private
	select {
	case p = <-privDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Privatize did not return after the in-flight transaction committed")
	}
	// The drained commit was admitted before the epoch: its value is
	// visible to the detached read and its version is covered.
	if got := v.LoadDetached(p); got != 2 {
		t.Fatalf("detached read = %d, want the drained commit's 2", got)
	}
	if p.Epoch() == 0 {
		t.Fatal("epoch 0 after an update commit")
	}
	p.Republish()
	if got := tm.Stats().Privatizations; got != 1 {
		t.Fatalf("Privatizations = %d, want 1", got)
	}
}

// TestPrivatizeDetachRepublishCycle walks the intended lifecycle: commit,
// detach, read plain, republish, commit again — and checks the values and
// the version fence at each step.
func TestPrivatizeDetachRepublishCycle(t *testing.T) {
	tm := New()
	cells := make([]*TypedCell[int], 8)
	for i := range cells {
		cells[i] = NewTypedCell(tm, 0)
	}
	for round := 1; round <= 3; round++ {
		if err := tm.Atomically(Classic, func(tx *Tx) error {
			for i, c := range cells {
				c.Store(tx, round*100+i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if got := c.LoadDetached(p); got != round*100+i {
				t.Fatalf("round %d: detached cells[%d] = %d, want %d", round, i, got, round*100+i)
			}
		}
		// The pinned transactional view and the plain view agree.
		if err := p.Atomically(func(tx *Tx) error {
			if got := cells[0].Load(tx); got != round*100 {
				return fmt.Errorf("pinned read = %d, want %d", got, round*100)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p.Republish()
		if !p.Republished() {
			t.Fatal("Republished() false after Republish")
		}
		p.Republish() // idempotent
		if err := p.Atomically(func(tx *Tx) error { return nil }); err != ErrPinReleased {
			t.Fatalf("Atomically after Republish = %v, want ErrPinReleased", err)
		}
	}
	if n := tm.PinnedVersions(); n != 0 {
		t.Fatalf("%d pins leaked after republish cycles", n)
	}
	if got := tm.Stats().Privatizations; got != 3 {
		t.Fatalf("Privatizations = %d, want 3", got)
	}
}

// TestLoadDetachedZeroAlloc pins the tentpole's cost claim: a detached
// read of a word-shaped typed cell performs zero allocations. (Race
// builds skip — the race runtime's instrumentation allocates.)
func TestLoadDetachedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race runtime")
	}
	tm := New()
	c := NewTypedCell(tm, 42)
	ptr := NewTypedCell(tm, &struct{ x int }{x: 7})
	p, err := tm.Privatize()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Republish()
	var sink int
	if avg := testing.AllocsPerRun(200, func() { sink += c.LoadDetached(p) }); avg != 0 {
		t.Fatalf("LoadDetached(word) allocates %.1f/op, want 0", avg)
	}
	var psink *struct{ x int }
	if avg := testing.AllocsPerRun(200, func() { psink = ptr.LoadDetached(p) }); avg != 0 {
		t.Fatalf("LoadDetached(ptr) allocates %.1f/op, want 0", avg)
	}
	_, _ = sink, psink
}

// TestPrivatizeGuardRails verifies the race-build guard rails: a
// transactional touch of a marked-detached cell panics loudly, as does a
// detached read after Republish and a detached read that observes a
// version newer than its epoch. In normal builds the guards compile away
// and the test skips.
func TestPrivatizeGuardRails(t *testing.T) {
	if !PrivatizeGuardsEnabled {
		t.Skip("guard rails are compiled in race builds only")
	}
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want one containing %q", want)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not contain %q", msg, want)
			}
		}()
		fn()
	}

	t.Run("transactional touch of detached cell", func(t *testing.T) {
		tm := New()
		c := NewTypedCell(tm, 1)
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDetached(p)
		mustPanic(t, "detached cell", func() {
			_ = tm.Atomically(Classic, func(tx *Tx) error { _ = c.Load(tx); return nil })
		})
		mustPanic(t, "detached cell", func() {
			_ = tm.Atomically(Classic, func(tx *Tx) error { c.Store(tx, 2); return nil })
		})
		p.Republish()
		// Unguarded after republish: transactional use is legal again.
		if err := tm.Atomically(Classic, func(tx *Tx) error { c.Store(tx, 3); return nil }); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("detached read after republish", func(t *testing.T) {
		tm := New()
		c := NewTypedCell(tm, 1)
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		p.Republish()
		mustPanic(t, "after Republish", func() { _ = c.LoadDetached(p) })
	})

	t.Run("detached read newer than epoch", func(t *testing.T) {
		tm := New()
		c := NewTypedCell(tm, 1)
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Republish()
		// Simulate a fence hole: a commit lands on the cell after the
		// detach (the cell was not marked, so the write itself passes).
		if err := tm.Atomically(Classic, func(tx *Tx) error { c.Store(tx, 2); return nil }); err != nil {
			t.Fatal(err)
		}
		mustPanic(t, "newer than detach epoch", func() { _ = c.LoadDetached(p) })
	})
}

// TestPrivatizeConcurrentWithCommitters runs Privatize/Republish cycles
// against a churn of committers on cells OUTSIDE the detached region (the
// fence discipline) and asserts every detached observation respects its
// epoch. Primarily a race-detector workout for the barrier machinery.
func TestPrivatizeConcurrentWithCommitters(t *testing.T) {
	tm := New()
	region := NewTypedCell(tm, 0)
	churn := make([]*TypedCell[int], 4)
	for i := range churn {
		churn[i] = NewTypedCell(tm, 0)
	}
	fence := NewTypedCell(tm, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = tm.Atomically(Classic, func(tx *Tx) error {
					churn[w].Store(tx, i)
					if !fence.Load(tx) {
						region.Store(tx, region.Load(tx)+1)
					}
					return nil
				})
			}
		}(w)
	}
	for cycle := 0; cycle < 20; cycle++ {
		if err := tm.Atomically(Classic, func(tx *Tx) error {
			fence.Store(tx, true)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p, err := tm.Privatize()
		if err != nil {
			t.Fatal(err)
		}
		region.MarkDetached(p)
		v1 := region.LoadDetached(p)
		v2 := region.LoadDetached(p)
		if v1 != v2 {
			t.Fatalf("cycle %d: detached region moved under the fence: %d then %d", cycle, v1, v2)
		}
		p.Republish()
		if err := tm.Atomically(Classic, func(tx *Tx) error {
			fence.Store(tx, false)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
