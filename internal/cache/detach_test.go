package cache

import (
	"testing"

	"repro/internal/core"
)

// TestCacheDetachServesFrozenIndex detaches a warm cache and checks the
// plain-probe view: hits return the frozen values, misses miss, recency
// is untouched (no promotions), and Republish folds the burst tallies
// into the escrow counters.
func TestCacheDetachServesFrozenIndex(t *testing.T) {
	tm := core.New()
	c := New[int](tm, 64)
	for i := 0; i < 64; i++ {
		if _, err := c.Put(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Detach()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if v, ok := d.Get(i); !ok || v != i*10 {
			t.Fatalf("detached Get(%d) = %d,%v, want %d,true", i, v, ok, i*10)
		}
	}
	if _, ok := d.Get(999); ok {
		t.Fatal("detached Get(999) hit")
	}
	if got := d.Len(); got != 64 {
		t.Fatalf("detached Len = %d, want 64", got)
	}
	h, m := d.Stats()
	if h != 64 || m != 1 {
		t.Fatalf("burst stats = %d hits, %d misses; want 64, 1", h, m)
	}
	preHits, preMisses, _ := c.Stats()
	if err := d.Republish(); err != nil {
		t.Fatal(err)
	}
	if err := d.Republish(); err != nil { // idempotent, no double fold
		t.Fatal(err)
	}
	postHits, postMisses, _ := c.Stats()
	if postHits != preHits+64 || postMisses != preMisses+1 {
		t.Fatalf("escrow fold: hits %d->%d misses %d->%d, want +64/+1",
			preHits, postHits, preMisses, postMisses)
	}
	// Republished: the cache accepts writes again and the structure is
	// intact (the burst promoted nothing and broke nothing).
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		return c.CheckTx(tx)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(1000, 1); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDetachStriped pins the detach contract on a striped cache:
// every stripe freezes under the ONE epoch the quiescence barrier draws,
// a burst's probes cross stripes freely and observe that instant, the
// burst tallies accrue per stripe, and Republish folds each stripe's leg
// into that stripe's own escrow counters exactly once.
func TestCacheDetachStriped(t *testing.T) {
	tm := core.New()
	c := NewWith[int](tm, 32, Options{Stripes: 4})
	for i := 0; i < 80; i++ { // over-fill: every stripe sees churn
		if _, err := c.Put(i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the exact membership the detach must freeze.
	expected := map[int]int{}
	if err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		for _, s := range c.stripes {
			for _, e := range ringOrder(tx, s) {
				expected[e.key.Load(tx)] = e.val.Load(tx)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, err := c.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch() == 0 {
		t.Fatal("detach epoch is zero")
	}
	// Probe every key ever inserted: hits must return exactly the frozen
	// bindings, misses exactly the evicted keys, regardless of stripe.
	wantHits := make([]int64, c.Stripes())
	wantMisses := make([]int64, c.Stripes())
	for k := 0; k < 80; k++ {
		v, ok := d.Get(k)
		ev, eok := expected[k]
		if ok != eok || (ok && v != ev) {
			t.Fatalf("detached Get(%d) = (%d,%v), frozen membership says (%d,%v)", k, v, ok, ev, eok)
		}
		if ok {
			wantHits[c.stripeIndex(k)]++
		} else {
			wantMisses[c.stripeIndex(k)]++
		}
	}
	if got := d.Len(); got != len(expected) {
		t.Fatalf("detached Len = %d, frozen membership has %d", got, len(expected))
	}
	// Burst tallies landed on the right stripes.
	pre := make([]StripeStats, c.Stripes())
	for i := range pre {
		if h, m := d.StripeStats(i); h != wantHits[i] || m != wantMisses[i] {
			t.Fatalf("stripe %d burst tallies (%d,%d), want (%d,%d)", i, h, m, wantHits[i], wantMisses[i])
		}
		pre[i] = c.StripeStats(i)
	}
	if err := d.Republish(); err != nil {
		t.Fatal(err)
	}
	if err := d.Republish(); err != nil { // fold exactly once
		t.Fatal(err)
	}
	for i := range pre {
		post := c.StripeStats(i)
		if post.Hits != pre[i].Hits+wantHits[i] || post.Misses != pre[i].Misses+wantMisses[i] {
			t.Fatalf("stripe %d fold: hits %d->%d misses %d->%d, want +%d/+%d",
				i, pre[i].Hits, post.Hits, pre[i].Misses, post.Misses, wantHits[i], wantMisses[i])
		}
	}
	// A second detach cycle, after an intervening update commit, draws a
	// later epoch.
	if _, err := c.Put(1000, 1); err != nil {
		t.Fatal(err)
	}
	d2, err := c.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Epoch() <= d.Epoch() {
		t.Fatalf("second detach epoch %d not after first %d", d2.Epoch(), d.Epoch())
	}
	if err := d2.Republish(); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDetachZeroAllocProbe pins the read-burst cost: a detached
// probe allocates nothing. (Race builds skip.)
func TestCacheDetachZeroAllocProbe(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("allocation counts are only meaningful without the race runtime")
	}
	tm := core.New()
	c := New[int](tm, 128)
	for i := 0; i < 128; i++ {
		if _, err := c.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Detach()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Republish()
	var sink int
	if avg := testing.AllocsPerRun(200, func() {
		v, _ := d.Get(77)
		sink += v
	}); avg != 0 {
		t.Fatalf("detached probe allocates %.1f/op, want 0", avg)
	}
	_ = sink
}

// TestCacheDetachGuardRails (race builds) asserts an unfenced writer
// dies loudly on the marked structure.
func TestCacheDetachGuardRails(t *testing.T) {
	if !core.PrivatizeGuardsEnabled {
		t.Skip("guard rails are compiled in race builds only")
	}
	tm := core.New()
	c := New[int](tm, 8)
	for i := 0; i < 8; i++ {
		if _, err := c.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Detach()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unfenced Put into a detached cache did not panic")
			}
		}()
		_, _ = c.Put(3, 99)
	}()
	if err := d.Republish(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(3, 100); err != nil {
		t.Fatal(err)
	}
}
