package cache

import (
	"sync/atomic"

	"repro/internal/core"
)

// This file serves read bursts from a privatized cache index: Detach
// freezes the cache behind core.TM.Privatize's quiescence barrier and
// returns a view whose probes are plain bucket-chain walks — no
// transactions, no touched-bit writes, zero allocations per probe. All
// stripes freeze under the ONE detach epoch the barrier draws: a
// detached Get may cross into any stripe and a detached Len folds every
// stripe's size cell, all observing the same instant. The trade is
// explicit: a detached burst does not touch recency (the per-stripe
// CLOCK state is frozen with the rest of the structure), which is
// exactly what a read burst wants — a million probes should not commit
// a million reference-bit writes, nor should they evict each other's
// working set.
//
// The fence contract is the caller's, as for TM.Privatize: stop writers
// to THIS cache before Detach, re-admit them after Republish. Race
// builds mark every cell of every stripe, so a writer that slips the
// fence fails loudly no matter which stripe it lands on.

// DetachedCache is a frozen, detached view of a Cache at a fixed epoch:
// safe for concurrent use by any number of readers. Republish must be
// called exactly once, after all readers are done.
type DetachedCache[V any] struct {
	c *Cache[V]
	p *core.Private

	// Burst-local statistics, one leg per stripe: plain atomics, since no
	// transaction is in flight to carry escrow bumps, padded so readers
	// hammering different stripes do not share a counter cache line.
	// Republish folds each leg into its own stripe's escrow counters.
	stats  []detachedStripeStats
	folded atomic.Bool
}

type detachedStripeStats struct {
	hits   atomic.Int64
	misses atomic.Int64
	_      [48]byte
}

// Detach privatizes the cache and returns the frozen view. The caller
// must have fenced new writers away from this cache first.
func (c *Cache[V]) Detach() (*DetachedCache[V], error) {
	p, err := c.tm.Privatize()
	if err != nil {
		return nil, err
	}
	d := &DetachedCache[V]{c: c, p: p, stats: make([]detachedStripeStats, len(c.stripes))}
	if core.PrivatizeGuardsEnabled {
		// Guard walk (race builds only): arm the loud-error rails on every
		// stripe's directory, ring, hand, size cell and entries.
		for _, s := range c.stripes {
			s.hand.MarkDetached(p)
			s.size.MarkDetached(p)
			for _, b := range s.buckets {
				b.MarkDetached(p)
			}
			for _, slot := range s.slots {
				slot.MarkDetached(p)
				if e := slot.LoadDetached(p); e != nil {
					e.key.MarkDetached(p)
					e.val.MarkDetached(p)
					e.hnext.MarkDetached(p)
					e.touched.MarkDetached(p)
				}
			}
		}
	}
	return d, nil
}

// Epoch returns the detach epoch the view is frozen at.
func (d *DetachedCache[V]) Epoch() uint64 { return d.p.Epoch() }

// Get probes the frozen index with a plain bucket-chain walk in the
// key's stripe. Unlike the transactional Get it never records a use —
// recency is frozen — and the hit/miss tallies accrue burst-locally,
// per stripe, until Republish folds them into the stripes' escrow
// counters.
func (d *DetachedCache[V]) Get(key int) (V, bool) {
	i := d.c.stripeIndex(key)
	s := d.c.stripes[i]
	for e := s.bucket(key).LoadDetached(d.p); e != nil; e = e.hnext.LoadDetached(d.p) {
		if e.key.LoadDetached(d.p) == key {
			d.stats[i].hits.Add(1)
			return e.val.LoadDetached(d.p), true
		}
	}
	d.stats[i].misses.Add(1)
	var zero V
	return zero, false
}

// Len returns the number of cached entries in the frozen view, folded
// across stripes at the detach epoch.
func (d *DetachedCache[V]) Len() int {
	n := 0
	for _, s := range d.c.stripes {
		n += s.size.LoadDetached(d.p)
	}
	return n
}

// Stats returns the burst-local hit/miss tallies so far, folded across
// stripes.
func (d *DetachedCache[V]) Stats() (hits, misses int64) {
	for i := range d.stats {
		hits += d.stats[i].hits.Load()
		misses += d.stats[i].misses.Load()
	}
	return hits, misses
}

// StripeStats returns stripe i's burst-local hit/miss tallies so far.
func (d *DetachedCache[V]) StripeStats(i int) (hits, misses int64) {
	return d.stats[i].hits.Load(), d.stats[i].misses.Load()
}

// Republish re-attaches the cache and folds the burst's per-stripe
// hit/miss tallies into the matching stripes' escrow counters (one small
// transaction for the whole fold; a cache serving a read burst wants its
// hit-rate monitoring — per stripe included — to cover the burst). The
// caller may then re-admit writers. Idempotent — only the first call
// folds. Returns the fold transaction's error, nil on repeat calls.
func (d *DetachedCache[V]) Republish() error {
	d.p.Republish()
	if d.folded.Swap(true) {
		return nil
	}
	any := false
	for i := range d.stats {
		if d.stats[i].hits.Load() != 0 || d.stats[i].misses.Load() != 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	return d.c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		for i, s := range d.c.stripes {
			if h := d.stats[i].hits.Load(); h != 0 {
				s.hits.AddTx(tx, h)
			}
			if m := d.stats[i].misses.Load(); m != 0 {
				s.misses.AddTx(tx, m)
			}
		}
		return nil
	})
}
