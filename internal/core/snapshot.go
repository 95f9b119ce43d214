package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// This file implements pin-aware version reclamation: the bridge between
// the multiversion read path (snapshot transactions fall back to retained
// old versions) and the recycling write path (retired version records of
// word- and pointer-shaped cells are rewritten in place by later commits).
//
// Without pins the two cohabit on a fixed budget: each cell keeps the
// newest keepVersions records and recycles the rest, so a snapshot reader
// older than a few commits finds its version gone (AbortSnapshotTooOld) —
// the unsafe-reclamation hazard that privatization-safe TMs formalize,
// here surfacing as a liveness cliff for long-lived readers. A SnapshotPin
// makes old versions survivable on demand: while a version P is pinned,
// retirement never recycles the newest record with version <= P of any
// cell, so every cell stays readable at P for as long as the pin lives —
// across any number of transactions.
//
// The registry is deliberately asymmetric: pin/unpin are rare, deliberate,
// multi-transaction operations and may scan stripes, while the committer
// side — consulted on every update commit — is a single atomic load of a
// cached watermark word (the minimum pinned version, or noPinWatermark
// when nothing is pinned), keeping the zero-allocation warm update path
// intact.

// ErrTooManyPins is returned by PinSnapshot when every registry slot is
// occupied by a live pin. The registry is sized far beyond reasonable use
// (pins are heavyweight multi-transaction handles, not per-read state);
// hitting the limit means pins are leaking — release them.
var ErrTooManyPins = errors.New("too many active snapshot pins")

// noPinWatermark is the registry watermark when no pin is active: every
// version is older than it, so retirement recycles on the keepVersions
// budget alone, exactly the unpinned behaviour.
const noPinWatermark = ^uint64(0)

// pinMaxActive bounds simultaneous pins per TM. Pins are heavyweight
// multi-transaction handles, not per-read state; 128 is far beyond
// reasonable use, and hitting it means pins are leaking.
const pinMaxActive = 128

// pinRegistry tracks the active snapshot pins of one TM.
//
// The design is deliberately asymmetric about who pays what: committers
// read ONE atomic word (watermark) lock-free on every update commit,
// while pin/unpin bookkeeping — rare, heavyweight, multi-transaction
// operations — serializes on a mutex, slot scan and all. Serialization is
// what makes the watermark trustworthy at every instant: each write to it
// happens under the lock and stores the exact minimum over the slots at
// that moment, so the word is NEVER above a live pin's version — not even
// transiently. (Lock-free maintenance was tried and rejected in review: a
// release whose slot scan raced an acquisition could transiently publish
// a too-high value, and one committer sampling that window is enough to
// recycle a record the new pin depends on — permanently, since pinned
// readers retry at a fixed bound. With the mutex there is nothing for a
// striped slot layout to buy, so the slots are a flat array.)
type pinRegistry struct {
	// slots hold pinnedVersion+1; zero means free (the +1 bias lets
	// version 0 — freshly created cells — be pinned too). Written only
	// under mu; PinnedVersions reads them without it for diagnostics.
	slots [pinMaxActive]atomic.Uint64
	// mu serializes slot updates with watermark recomputation. Never held
	// on the commit path.
	mu sync.Mutex
	_  [48]byte
	// watermark caches min(active pins), or noPinWatermark when none: the
	// ONE word the commit path loads per update transaction. Written only
	// under mu; read lock-free.
	watermark atomic.Uint64
	_         [56]byte
}

func (r *pinRegistry) init() { r.watermark.Store(noPinWatermark) }

// current returns the reclamation watermark: records strictly older than
// the newest record at or below it are recyclable (see cell.retire).
func (r *pinRegistry) current() uint64 { return r.watermark.Load() }

// acquire claims a free slot for version ver and lowers the cached
// watermark to cover it, atomically with respect to other bookkeeping. It
// returns the slot for release, or nil when the registry is full.
func (r *pinRegistry) acquire(ver uint64) *atomic.Uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.slots {
		slot := &r.slots[i]
		if slot.Load() == 0 {
			slot.Store(ver + 1)
			if ver < r.watermark.Load() {
				// The old watermark was the minimum over the other
				// slots, so min(old, ver) is exactly the new scan
				// minimum — no rescan needed.
				r.watermark.Store(ver)
			}
			return slot
		}
	}
	return nil
}

// release frees the slot and recomputes the watermark from the remaining
// pins, atomically with respect to other bookkeeping. The stored value is
// the exact minimum at this serialized instant; a pin acquired after the
// lock is dropped recomputes against the raised value itself.
func (r *pinRegistry) release(slot *atomic.Uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot.Store(0)
	r.watermark.Store(r.scanMin())
}

// scanMin returns the smallest pinned version across all slots, or
// noPinWatermark when none is active. Callers hold mu.
func (r *pinRegistry) scanMin() uint64 {
	m := uint64(noPinWatermark)
	for i := range r.slots {
		if v := r.slots[i].Load(); v != 0 && v-1 < m {
			m = v - 1
		}
	}
	return m
}

// SnapshotPin pins one committed version of a TM for multi-transaction
// use: while the pin is live, every cell of the TM stays readable at the
// pinned version — update commits retain (rather than recycle or drop)
// the versions the pin depends on. Obtain one with TM.PinSnapshot, read
// through it with Atomically, and Release it as soon as possible: every
// commit that overwrites a cell while a pin is active retains one extra
// version record per overwritten cell until the pin is released (the
// write path then recycles the backlog on its next commits).
//
// A SnapshotPin is safe for concurrent use by multiple goroutines — many
// readers can iterate one pinned version — but Release must be called
// exactly once, after all of them are done.
type SnapshotPin struct {
	tm       *TM
	ver      uint64
	slot     *atomic.Uint64
	released atomic.Bool
}

// PinSnapshot pins the TM's current version and returns the handle. The
// moment it returns, every cell is — and stays — readable at Version,
// regardless of concurrent updates, until Release. Acquisition is
// wait-free: two clock reads and one registry update, never a retry loop,
// so a sustained commit stream cannot starve it.
//
// The protocol announces FIRST and adopts the pinned version SECOND: the
// slot (and watermark) is published at a lower bound p0 (a clock read),
// and the pin's version is a fresh clock read AFTER the announce. That ordering is
// what makes confirmation unnecessary (atomics are sequentially
// consistent):
//
//   - a commit with wv > Version must have drawn wv after our second
//     clock read (had it drawn before, that read would have returned
//     >= wv), hence after the
//     announce, hence its post-draw watermark sample sees a value <= p0
//     and it retains every record a reader at Version can reach (retire
//     keeps everything above the watermark plus the first record at or
//     below it, a superset of "newest <= Version" since p0 <= Version);
//   - a commit with wv <= Version needs no protection: its own install
//     is at or below Version and supersedes whatever it retires.
//
// The pin retains from p0 rather than Version — over-retention bounded by
// the handful of commits that land between the two reads.
func (tm *TM) PinSnapshot() (*SnapshotPin, error) {
	p0 := tm.clock.Load()
	slot := tm.pins.acquire(p0)
	if slot == nil {
		return nil, ErrTooManyPins
	}
	ver := tm.clock.Load()
	tm.stats.pins.Add(1)
	return &SnapshotPin{tm: tm, ver: ver, slot: slot}, nil
}

// Version returns the pinned version: every read through the pin observes
// the committed state as of exactly this instant.
func (p *SnapshotPin) Version() uint64 { return p.ver }

// Released reports whether the pin has been released.
func (p *SnapshotPin) Released() bool { return p.released.Load() }

// Release unpins the version, letting retirement recycle the records the
// pin was holding. Idempotent: extra calls are no-ops, so `defer
// pin.Release()` composes with early release on success paths.
func (p *SnapshotPin) Release() {
	if p.released.Swap(true) {
		return
	}
	p.tm.pins.release(p.slot)
}

// Atomically runs fn as one Snapshot-semantics transaction whose reads
// observe the pinned version instead of the clock's current value. Unlike
// a plain Snapshot transaction, the needed versions are guaranteed
// retained, so reads never abort with AbortSnapshotTooOld — and unlike a
// single long transaction, successive calls on one pin observe the SAME
// consistent state, which is what makes chunked iteration over a live
// structure consistent as a whole.
func (p *SnapshotPin) Atomically(fn func(*Tx) error) error {
	return p.AtomicallyCtx(nil, fn)
}

// AtomicallyCtx is Atomically with cancellation.
func (p *SnapshotPin) AtomicallyCtx(ctx context.Context, fn func(*Tx) error) error {
	if p.released.Load() {
		return ErrPinReleased
	}
	return p.tm.atomicallyPinned(ctx, p.ver, fn)
}

// ErrPinReleased is returned when a released SnapshotPin is used.
var ErrPinReleased = errors.New("snapshot pin already released")

// PinnedVersions reports how many versions are currently pinned, for tests
// and diagnostics.
func (tm *TM) PinnedVersions() int {
	n := 0
	for i := range tm.pins.slots {
		if tm.pins.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}
