package cache

import (
	"fmt"

	"repro/internal/core"
)

// CheckTx verifies the cache's structural invariants inside tx, in two
// layers. Per stripe: the size cell is within the capacity share, the
// ring's first size slots hold entries and the rest are empty, the hand
// stays at 0 until the stripe is full, every ring entry is reachable
// through its stripe's bucket chains, and the chains hold exactly the
// ring's entries. Globally: every entry lives in the stripe its key
// routes to, and keys are unique across the whole cache. Used by the
// tests and the storm harness; Check is the one-shot wrapper.
func (c *Cache[V]) CheckTx(tx *core.Tx) error {
	c.owns(tx)
	seen := make(map[int]*entry[V]) // global: keys unique across stripes
	for si, s := range c.stripes {
		n, hand := s.size.Load(tx), s.hand.Load(tx)
		if n < 0 || n > len(s.slots) {
			return fmt.Errorf("cache: stripe %d size cell %d outside its capacity share %d", si, n, len(s.slots))
		}
		if hand < 0 || hand >= len(s.slots) || (n < len(s.slots) && hand != 0) {
			return fmt.Errorf("cache: stripe %d hand at %d with %d of %d slots filled", si, hand, n, len(s.slots))
		}
		for i, slot := range s.slots {
			e := slot.Load(tx)
			if i >= n {
				if e != nil {
					return fmt.Errorf("cache: stripe %d slot %d filled beyond size %d", si, i, n)
				}
				continue
			}
			if e == nil {
				return fmt.Errorf("cache: stripe %d slot %d empty below size %d", si, i, n)
			}
			key := e.key.Load(tx)
			if _, dup := seen[key]; dup {
				return fmt.Errorf("cache: key %d appears twice across the rings", key)
			}
			seen[key] = e
			if c.stripeFor(key) != s {
				return fmt.Errorf("cache: key %d held in stripe %d but routes to stripe %d",
					key, si, c.stripeIndex(key))
			}
			if s.lookupTx(tx, key) != e {
				return fmt.Errorf("cache: stripe %d entry %d not reachable through its bucket", si, key)
			}
		}
		chained := 0
		for b := range s.buckets {
			for e := s.buckets[b].Load(tx); e != nil; e = e.hnext.Load(tx) {
				if seen[e.key.Load(tx)] != e {
					return fmt.Errorf("cache: stripe %d bucket entry %d not in its ring", si, e.key.Load(tx))
				}
				if chained++; chained > n {
					return fmt.Errorf("cache: stripe %d bucket chains hold more entries than its ring", si)
				}
			}
		}
		if chained != n {
			return fmt.Errorf("cache: stripe %d bucket chains hold %d entries, ring %d", si, chained, n)
		}
	}
	return nil
}

// Check runs CheckTx in its own classic transaction: the one-shot
// structural validator, callable from operational tooling (stormcheck's
// lrucache path runs it after every storm) without writing a
// transaction bracket by hand.
func (c *Cache[V]) Check() error {
	return c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		return c.CheckTx(tx)
	})
}
