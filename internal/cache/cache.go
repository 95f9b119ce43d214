// Package cache implements a transactional LRU cache over the polymorphic
// runtime — a bounded int-keyed map with CLOCK (second-chance) eviction
// whose every operation is plain sequential code inside a transaction,
// composable with any other transactional state.
//
// The structure is STRIPED: the capacity is split across N stripes (a
// power of two; by default one stripe per 2048 slots, between 1 and 16,
// so the layout depends on the capacity alone and never on the host),
// each owning its own hash-bucket directory, its own CLOCK ring and its
// own escrow statistics legs. Keys are routed to a stripe by a Fibonacci
// multiplicative hash, so hits, inserts and evictions on different
// stripes never share a written cell.
//
// Each stripe's recency state is a CLOCK ring: a fixed array of slot
// cells, a hand cell and a size cell. Every entry carries a word-shaped
// `touched` reference bit. A hit sets the bit, and only when it is still
// clear, so a steady-state hot hit writes nothing at all. While the
// stripe fills, a new key gets a fresh entry in the next free slot; once
// it is full, an insert sweeps from the hand, clearing touched bits and
// moving past those entries, unlinks the first untouched entry from its
// bucket chain and rewrites that same entry in place for the new key.
// An evicting put therefore allocates nothing, and a stripe never holds
// more than its capacity share of entries: evicted bindings do not
// linger on the heap behind the runtime's retained versions. The ring is
// the classic CLOCK approximation of LRU, maintained per stripe: there
// is no total LRU order across stripes, and an entry's age is corrected
// lazily, at eviction time.
//
// Because entries are reused, an entry's key is a cell like everything
// else: a snapshot reader walking an old version of a bucket chain reads
// the key that entry held at that version, never the key it holds now.
// Lookups, touches and evictions are ordinary transactional loads and
// stores, so a Get, a Put that evicts and the caller's own reads and
// writes all commit or abort as one unit. Hit/miss/eviction/demotion
// statistics go through boost.EscrowCounter (the escrow relaxation):
// counter bumps commute, so concurrent operations never conflict on the
// stats, yet aborted attempts leave no trace — eviction accounting
// composed with the escrow method, exactly the pairing the paper's
// section 4.1 contrasts with semantics labels.
package cache

import (
	"repro/internal/boost"
	"repro/internal/core"
)

// fibMult is the Fibonacci multiplicative hashing constant shared with
// txstruct.HashSet: the stripe index comes from the top bits of the
// product, the bucket index from bits 32+, so the two routings stay
// decorrelated.
const fibMult = 0x9e3779b97f4a7c15

const (
	// slotsPerStripe is the capacity per stripe the default stripe count
	// aims at.
	slotsPerStripe = 2048
	// maxDefaultStripes caps the default stripe count.
	maxDefaultStripes = 16
)

// entry is one cached binding, owned by one ring slot for the life of
// the cache and rewritten in place when its binding is evicted. Every
// field is a typed cell (word- or pointer-shaped payloads: no boxing,
// and version records recycle), so a touch or an eviction allocates
// nothing. The cells are embedded by value: an entry is one allocation,
// and the key check of a chain walk reaches the key cell without
// chasing a pointer. touched is the CLOCK reference bit: set by the
// first hit after insertion or demotion, cleared only by the eviction
// sweep.
type entry[V any] struct {
	key     core.TypedCell[int]
	val     core.TypedCell[V]
	hnext   core.TypedCell[*entry[V]] // hash-bucket chain
	touched core.TypedCell[bool]      // second-chance reference bit
}

// stripe is one independent slice of the cache: its own directory, its
// own CLOCK ring and its own statistics legs. No cell is shared between
// stripes, so transactions confined to different stripes are
// disjoint-access parallel.
type stripe[V any] struct {
	mask    uint64
	buckets []*core.TypedCell[*entry[V]]
	// slots is the CLOCK ring, one slot per unit of the stripe's capacity
	// share. slots[:size] hold entries, filled in order; the rest are nil.
	slots []*core.TypedCell[*entry[V]]
	hand  *core.TypedCell[int] // sweep origin: the oldest entry once full
	size  *core.TypedCell[int]

	hits      *boost.EscrowCounter
	misses    *boost.EscrowCounter
	evictions *boost.EscrowCounter
	demotions *boost.EscrowCounter // touched entries spared by a sweep
}

// Cache is a transactional striped CLOCK cache mapping int keys to V
// values. Create one with New (default stripe count) or NewWith, and use
// it inside transactions of the same TM (the Tx-suffixed methods), or
// through the one-shot wrappers.
type Cache[V any] struct {
	tm       *core.TM
	capacity int
	stripes  []*stripe[V]
	sshift   uint // 64 - log2(len(stripes)); x >> sshift routes to a stripe
}

// Options configures NewWith.
type Options struct {
	// Stripes is the number of independent stripes; it is rounded up to a
	// power of two and capped so every stripe owns at least one slot.
	// Zero selects the default: one stripe per 2048 slots of capacity,
	// between 1 and 16.
	Stripes int
}

// New builds an empty cache bounded to capacity entries (minimum 1) with
// the default stripe count.
func New[V any](tm *core.TM, capacity int) *Cache[V] {
	return NewWith[V](tm, capacity, Options{})
}

// NewWith builds an empty cache bounded to capacity entries (minimum 1)
// across the configured number of stripes. The capacity is split across
// stripes (earlier stripes absorb the remainder); each stripe's
// directory is sized to keep bucket chains short at full capacity.
// Entries are built as their slots first fill, not here.
func NewWith[V any](tm *core.TM, capacity int, opts Options) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	ns := opts.Stripes
	if ns <= 0 {
		ns = min(max(capacity/slotsPerStripe, 1), maxDefaultStripes)
	}
	ns = ceilPow2(ns)
	for ns > capacity {
		ns >>= 1 // every stripe must own at least one slot
	}
	c := &Cache[V]{
		tm:       tm,
		capacity: capacity,
		stripes:  make([]*stripe[V], ns),
		sshift:   64 - log2(uint(ns)),
	}
	base, rem := capacity/ns, capacity%ns
	for i := range c.stripes {
		sc := base
		if i < rem {
			sc++
		}
		nb := ceilPow2(sc)
		s := &stripe[V]{
			mask:      uint64(nb - 1),
			buckets:   make([]*core.TypedCell[*entry[V]], nb),
			slots:     make([]*core.TypedCell[*entry[V]], sc),
			hand:      core.NewTypedCell(tm, 0),
			size:      core.NewTypedCell(tm, 0),
			hits:      boost.NewEscrowCounter(0),
			misses:    boost.NewEscrowCounter(0),
			evictions: boost.NewEscrowCounter(0),
			demotions: boost.NewEscrowCounter(0),
		}
		for b := range s.buckets {
			s.buckets[b] = core.NewTypedCell[*entry[V]](tm, nil)
		}
		for j := range s.slots {
			s.slots[j] = core.NewTypedCell[*entry[V]](tm, nil)
		}
		c.stripes[i] = s
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n uint) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Capacity returns the configured total bound.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Stripes returns the number of independent stripes.
func (c *Cache[V]) Stripes() int { return len(c.stripes) }

// owns panics when tx was begun on a different TM than the cache's own.
// With several TMs in one process (internal/shard partitions), a foreign
// transaction reading these cells would mix two clock domains' versions,
// and its escrow stats hooks would accrue against the wrong commit point
// — both silently. Misuse panics, like the core runtime's own. Every
// stripe's cells belong to the one TM, so the single check at the cache
// boundary covers them all.
func (c *Cache[V]) owns(tx *core.Tx) {
	if tx.TM() != c.tm {
		panic("cache: transaction belongs to a different TM than this cache")
	}
}

// stripeFor routes key to its stripe: the top log2(N) bits of the
// Fibonacci product, decorrelated from the in-stripe bucket bits.
func (c *Cache[V]) stripeFor(key int) *stripe[V] {
	return c.stripes[c.stripeIndex(key)]
}

// stripeIndex is stripeFor returning the index (Detach's per-stripe
// burst tallies key on it).
func (c *Cache[V]) stripeIndex(key int) int {
	return int((uint64(key) * fibMult) >> c.sshift)
}

// bucket returns the chain head cell for key within the stripe.
func (s *stripe[V]) bucket(key int) *core.TypedCell[*entry[V]] {
	return s.buckets[(uint64(key)*fibMult>>32)&s.mask]
}

// lookupTx walks the key's bucket chain.
func (s *stripe[V]) lookupTx(tx *core.Tx, key int) *entry[V] {
	for e := s.bucket(key).Load(tx); e != nil; e = e.hnext.Load(tx) {
		if e.key.Load(tx) == key {
			return e
		}
	}
	return nil
}

// touchTx records a use for the CLOCK sweep: set the entry's reference
// bit if it is still clear. The hot case — bit already set — writes
// nothing, so a steady-state hit is a read-only transaction; the cold
// case writes one cell private to this entry, which commutes with hits
// on every other entry (and conflicts only with a concurrent first
// toucher of the SAME entry, or with an eviction sweep passing it).
func (s *stripe[V]) touchTx(tx *core.Tx, e *entry[V]) {
	if !e.touched.Load(tx) {
		e.touched.Store(tx, true)
	}
}

// GetTx returns the cached value and records the use for the CLOCK
// sweep. A hit on an untouched entry writes that entry's private bit; a
// hit on an already-touched entry is read-only. Use PeekTx for a probe
// that leaves recency state alone. Hit/miss stats accrue at commit on
// the key's stripe.
func (c *Cache[V]) GetTx(tx *core.Tx, key int) (V, bool) {
	return c.probeTx(tx, key, true)
}

// PeekTx returns the cached value without recording a use: combined with
// Snapshot semantics it probes a live cache with zero write-path
// interference.
func (c *Cache[V]) PeekTx(tx *core.Tx, key int) (V, bool) {
	return c.probeTx(tx, key, false)
}

func (c *Cache[V]) probeTx(tx *core.Tx, key int, touch bool) (V, bool) {
	c.owns(tx)
	s := c.stripeFor(key)
	e := s.lookupTx(tx, key)
	if e == nil {
		s.misses.AddTx(tx, 1)
		var zero V
		return zero, false
	}
	s.hits.AddTx(tx, 1)
	if touch {
		s.touchTx(tx, e)
	}
	return e.val.Load(tx), true
}

// PutTx binds key to val. A put to an existing key updates the value in
// place and records a use. A new key fills the stripe's next free slot
// with a fresh entry while the stripe has room; once it is full, the
// CLOCK sweep picks a victim and the victim's entry is rewritten in
// place for the new key. Either way the new binding starts with its
// reference bit clear. It reports whether the key was new.
func (c *Cache[V]) PutTx(tx *core.Tx, key int, val V) bool {
	c.owns(tx)
	s := c.stripeFor(key)
	if e := s.lookupTx(tx, key); e != nil {
		e.val.Store(tx, val)
		s.touchTx(tx, e)
		return false
	}
	b := s.bucket(key)
	if n := s.size.Load(tx); n < len(s.slots) {
		e := new(entry[V])
		core.InitTypedCell(c.tm, &e.key, key)
		core.InitTypedCell(c.tm, &e.val, val)
		core.InitTypedCell(c.tm, &e.hnext, b.Load(tx))
		core.InitTypedCell(c.tm, &e.touched, false)
		s.slots[n].Store(tx, e)
		s.size.Store(tx, n+1)
		b.Store(tx, e)
		return true
	}
	e := s.evictTx(tx) // untouched, so its reference bit is already clear
	e.key.Store(tx, key)
	e.val.Store(tx, val)
	e.hnext.Store(tx, b.Load(tx))
	b.Store(tx, e)
	return true
}

// LenTx returns the number of cached entries, folded across stripes.
// The fold reads every stripe's size cell, so a LenTx transaction
// validates against concurrent inserts anywhere in the cache — use it
// under Snapshot semantics (or Len, which does) when probing a hot
// cache.
func (c *Cache[V]) LenTx(tx *core.Tx) int {
	c.owns(tx)
	n := 0
	for _, s := range c.stripes {
		n += s.size.Load(tx)
	}
	return n
}

// evictTx runs the CLOCK sweep of a full stripe from the hand: touched
// entries are demoted — reference bit cleared, hand moved past them —
// until the first untouched entry, the victim, which is unlinked from
// its bucket chain and returned with the hand left just past it. The
// sweep always terminates: after one full turn every bit it passed is
// clear. Eviction and demotion counts accrue at commit through the
// stripe's escrow counters, so concurrent evictors never conflict on a
// statistic.
func (s *stripe[V]) evictTx(tx *core.Tx) *entry[V] {
	h := s.hand.Load(tx)
	for {
		victim := s.slots[h].Load(tx)
		if h++; h == len(s.slots) {
			h = 0
		}
		if victim.touched.Load(tx) {
			victim.touched.Store(tx, false)
			s.demotions.AddTx(tx, 1)
			continue
		}
		s.hand.Store(tx, h)
		b := s.bucket(victim.key.Load(tx))
		next := victim.hnext.Load(tx)
		if head := b.Load(tx); head == victim {
			b.Store(tx, next)
		} else {
			for e := head; e != nil; {
				en := e.hnext.Load(tx)
				if en == victim {
					e.hnext.Store(tx, next)
					break
				}
				e = en
			}
		}
		s.evictions.AddTx(tx, 1)
		return victim
	}
}

// Stats returns the committed hit/miss/eviction counters folded across
// stripes. The counts are escrow-weakly consistent with each other (the
// documented price of the relaxation): read them for monitoring, not for
// invariants between live transactions.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	for _, s := range c.stripes {
		hits += s.hits.Value()
		misses += s.misses.Value()
		evictions += s.evictions.Value()
	}
	return hits, misses, evictions
}

// Demotions returns the committed count of second-chance rotations
// (touched entries spared by an eviction sweep), folded across stripes.
func (c *Cache[V]) Demotions() int64 {
	var d int64
	for _, s := range c.stripes {
		d += s.demotions.Value()
	}
	return d
}

// StripeStats is one stripe's committed statistics.
type StripeStats struct {
	Capacity  int
	Hits      int64
	Misses    int64
	Evictions int64
	Demotions int64
}

// StripeStats returns stripe i's committed counters (same escrow-weak
// consistency as Stats).
func (c *Cache[V]) StripeStats(i int) StripeStats {
	s := c.stripes[i]
	return StripeStats{
		Capacity:  len(s.slots),
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
		Demotions: s.demotions.Value(),
	}
}

// Get returns the value bound to key, recording the use, as one
// transaction.
func (c *Cache[V]) Get(key int) (val V, ok bool, err error) {
	err = c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		val, ok = c.GetTx(tx, key)
		return nil
	})
	return val, ok, err
}

// Put atomically binds key to val; it reports whether the key was new.
func (c *Cache[V]) Put(key int, val V) (isNew bool, err error) {
	err = c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		isNew = c.PutTx(tx, key, val)
		return nil
	})
	return isNew, err
}

// Peek returns the value bound to key without recording a use, under
// Snapshot semantics: it neither aborts nor blocks concurrent updates.
func (c *Cache[V]) Peek(key int) (val V, ok bool, err error) {
	err = c.tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		val, ok = c.PeekTx(tx, key)
		return nil
	})
	return val, ok, err
}

// Len returns the number of cached entries, under Snapshot semantics
// (the fold reads every stripe's size cell; a snapshot read keeps it
// from aborting against concurrent inserts).
func (c *Cache[V]) Len() (int, error) {
	var n int
	err := c.tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		n = c.LenTx(tx)
		return nil
	})
	return n, err
}
