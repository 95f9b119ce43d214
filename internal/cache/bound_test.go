package cache

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
)

// heapLive returns the live heap after forced collections: two, since
// sync.Pool contents survive one collection in the pools' victim caches.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestCacheHeapBoundedUnderChurn churns distinct keys through a full
// cache and holds its live heap flat: evicted bindings must not stay
// reachable, however many of them pass through. The mixed variant hits
// recent keys as well, so sweeps demote touched entries on the way.
func TestCacheHeapBoundedUnderChurn(t *testing.T) {
	if core.PrivatizeGuardsEnabled { // true exactly in race builds
		t.Skip("single-goroutine memory bound: the race runtime only slows it down")
	}
	for _, tc := range []struct {
		name     string
		hitEvery int // 0: inserts only
	}{{"inserts", 0}, {"mixed-hits", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			tm := core.New()
			c := NewWith[int](tm, 1024, Options{Stripes: 1})
			next := 0
			churn := func(n int) {
				for end := next + n; next < end; next++ {
					if _, err := c.Put(next, next); err != nil {
						t.Fatal(err)
					}
					if tc.hitEvery > 0 && next%tc.hitEvery == 0 {
						if _, _, err := c.Get(next - 100); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			churn(20_000)
			before := heapLive()
			churn(200_000)
			after := heapLive()
			runtime.KeepAlive(c)
			t.Logf("live heap %d -> %d bytes", before, after)
			if after > before+1<<20 {
				t.Errorf("live heap grew %d -> %d bytes over 200k evicting puts, want at most +1 MB",
					before, after)
			}
			if tc.hitEvery > 0 && c.Demotions() == 0 {
				t.Error("mixed churn ran no demotions")
			}
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCacheEvictingPutAllocs is the allocation fence of entry reuse: a
// warm put that evicts rewrites the victim's entry in place, so it may
// allocate no more than a hit does through the same one-shot wrappers
// (whose closures are all either one pays).
func TestCacheEvictingPutAllocs(t *testing.T) {
	if core.PrivatizeGuardsEnabled { // true exactly in race builds
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	const capacity = 64
	c := NewWith[int](tm, capacity, Options{Stripes: 1})
	next := 0
	put := func() {
		if _, err := c.Put(next, next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 4*capacity { // fill, then warm the eviction path
		put()
	}
	get := func() {
		if _, ok, err := c.Get(next - 1); err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v; want a hit", next-1, ok, err)
		}
	}
	evicting := min(testing.AllocsPerRun(200, put), testing.AllocsPerRun(200, put))
	hit := min(testing.AllocsPerRun(200, get), testing.AllocsPerRun(200, get))
	t.Logf("objects/op: evicting put %.1f, hit %.1f", evicting, hit)
	if evicting > hit {
		t.Errorf("evicting Put allocates %.1f objects/op, a hit %.1f: eviction must not allocate", evicting, hit)
	}
	if _, _, evictions := c.Stats(); evictions == 0 {
		t.Fatal("no put evicted")
	}
}
