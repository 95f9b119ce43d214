package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/persistmap"
)

// prefillChunk is how many keys one set-up transaction writes.
const prefillChunk = 16

// valueFor encodes the key in the value's high half, so every read can
// check that the value it got belongs to the key it asked for.
func valueFor(key, tag int) int { return key<<32 | tag&0x7fffffff }

func keyOf(v int) int { return v >> 32 }

// frontedMap is a persistmap.Map behind a cache on one TM: the read and
// write paths cached-read and durable-write share.
type frontedMap struct {
	tm *core.TM
	m  *persistmap.Map[int]
	c  *cache.Cache[int]

	// Cache counters at mark time.
	hits, misses, evictions, demotions int64
	// cachePuts counts committed Cache.PutTx calls per client: write-through
	// puts plus miss fills.
	cachePuts [clients]uint64
}

// prefill binds keys 0..n-1 to their initial values, chunked.
func (f *frontedMap) prefill(n int) error {
	for lo := 0; lo < n; lo += prefillChunk {
		err := f.tm.Atomically(core.Classic, func(tx *core.Tx) error {
			for k := lo; k < min(lo+prefillChunk, n); k++ {
				f.m.PutTx(tx, k, valueFor(k, 0))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// warm puts keys into the cache, chunked.
func (f *frontedMap) warm(keys []int) error {
	for lo := 0; lo < len(keys); lo += prefillChunk {
		err := f.tm.Atomically(core.Classic, func(tx *core.Tx) error {
			for _, k := range keys[lo:min(lo+prefillChunk, len(keys))] {
				v, _ := f.m.GetTx(tx, k)
				f.c.PutTx(tx, k, v)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// get is the cache-fronted Get: the cache first, and on a miss the map
// plus a cache fill, all in one Classic transaction.
func (f *frontedMap) get(c *client, key int) error {
	var v int
	var ok, miss bool
	err := c.atomically(f.tm, func(tx *core.Tx) error {
		miss = false
		c.tr.child(lCacheGet, func() { v, ok = f.c.GetTx(tx, key) })
		if ok {
			return nil
		}
		miss = true
		c.tr.child(lMapGet, func() { v, ok = f.m.GetTx(tx, key) })
		if ok {
			c.tr.child(lCachePut, func() { f.c.PutTx(tx, key, v) })
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("get %d: key missing", key)
	}
	if keyOf(v) != key {
		c.wrong("get %d returned value %#x of key %d", key, v, keyOf(v))
	}
	if miss {
		f.cachePuts[c.id]++
	}
	return nil
}

// put is the write-through Put: map and cache in one transaction.
func (f *frontedMap) put(c *client, key, val int) error {
	err := c.atomically(f.tm, func(tx *core.Tx) error {
		c.tr.child(lMapPut, func() { f.m.PutTx(tx, key, val) })
		c.tr.child(lCachePut, func() { f.c.PutTx(tx, key, val) })
		return nil
	})
	if err == nil {
		f.cachePuts[c.id]++
	}
	return err
}

func (f *frontedMap) mark() {
	f.hits, f.misses, f.evictions = f.c.Stats()
	f.demotions = f.c.Demotions()
	f.cachePuts = [clients]uint64{}
}

// finishCache checks the cache's structure and reports its layer metrics.
func (f *frontedMap) finishCache(rep *report) error {
	if err := f.c.Check(); err != nil {
		rep.fail("cache.Check after the run: %v", err)
	}
	h, m, e := f.c.Stats()
	h, m, e = h-f.hits, m-f.misses, e-f.evictions
	d := f.c.Demotions() - f.demotions
	var puts uint64
	for _, p := range f.cachePuts {
		puts += p
	}
	n, err := f.c.Len()
	if err != nil {
		return err
	}
	fill := float64(n) / float64(f.c.Capacity())
	rep.set("cache.hit_rate", ratio(float64(h), float64(h+m)), "ratio")
	rep.set("cache.evictions_per_put", ratio(float64(e), float64(puts)), "ratio")
	rep.set("cache.demotions_per_eviction", ratio(float64(d), float64(e)), "ratio")
	rep.set("cache.fill_ratio", fill, "ratio")
	rep.printf("cache: stripes=%d capacity=%d len=%d fill_ratio=%.6f hits=%d misses=%d hit_rate=%.4f puts=%d evictions=%d demotions=%d",
		f.c.Stripes(), f.c.Capacity(), n, fill, h, m, ratio(float64(h), float64(h+m)), puts, e, d)
	return nil
}

// cachedRead is the in-memory workload: a Zipf-skewed read-mostly mix
// over a map eight times the cache's capacity.
type cachedRead struct{ frontedMap }

func setupCachedRead(_ string, _ bool) (instance, error) {
	tm := core.New()
	w := &cachedRead{frontedMap{tm: tm, m: persistmap.New[int](tm), c: cache.New[int](tm, cachedReadCapacity)}}
	if err := w.prefill(cachedReadKeys); err != nil {
		return nil, err
	}
	// Warm the cache with the hottest ranks, the keys it would hold once
	// the run reaches its steady state.
	hot := make([]int, cachedReadCapacity)
	for r := range hot {
		hot[r] = scatter(uint64(r))
	}
	if err := w.warm(hot); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *cachedRead) do(c *client, o op) (int, error) {
	if o.kind == opGet {
		return 0, w.get(c, o.key)
	}
	return 1, w.put(c, o.key, valueFor(o.key, c.id<<30|c.s.n))
}

func (w *cachedRead) stats() core.Stats { return w.tm.Stats() }

func (w *cachedRead) finish(rep *report) error {
	rep.printf("config: clock=%s cache_stripes=%d cache_capacity=%d keys=%d zipf_s=%.2f get_pct=%d wal=none",
		w.tm.ClockScheme(), w.c.Stripes(), w.c.Capacity(), cachedReadKeys, zipfS, cachedReadGetPct)
	return w.finishCache(rep)
}

func (w *cachedRead) close() {}
