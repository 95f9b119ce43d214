package core

// Store buffers a write of value to c; it becomes visible atomically at
// commit. Inside a snapshot transaction Store aborts the transaction
// permanently with an error matching ErrWriteInSnapshot, since snapshot
// semantics is read-only by construction (section 5.1 of the paper).
//
// The first Store of an elastic transaction seals its parse phase: the
// current window becomes the seed read set of the final piece, which from
// then on behaves like a classic transaction (section 4.2).
//
// Store is the untyped entry point and boxes non-pointer values;
// TypedCell.Store / StoreT are the typed, allocation-free equivalents
// sharing the same engine (tx.store).
func (tx *Tx) Store(c *Cell, value any) {
	if c == nil {
		panic("core: Store to nil cell")
	}
	tx.store(&c.h, vbox{ref: value})
}

// store is the shared write engine under every Store entry point: it
// enforces semantics, seals elastic parses, and buffers the encoded value
// in the write set (redo log), deduplicating per cell.
func (tx *Tx) store(c *cell, v vbox) {
	tx.checkUsable()
	tx.checkKilled()
	if tx.sem == Snapshot {
		panic(permanentError{err: &SemanticsError{Sem: Snapshot, Op: "store"}})
	}
	tx.step()
	if raceEnabled {
		tx.tm.privCheck(c)
	}
	if tx.sem == Elastic && !tx.hasWrites {
		tx.sealElastic()
	}
	tx.hasWrites = true
	updated := false
	for i := range tx.writes {
		if tx.writes[i].cell == c {
			tx.writes[i].val = v
			updated = true
			break
		}
	}
	if !updated {
		tx.writes = append(tx.writes, writeEntry{cell: c, val: v})
	}
	if tx.tm.recorder != nil {
		tx.record(Event{Kind: EventWrite, TxID: tx.id.Load(), Attempt: tx.attempt,
			Sem: tx.sem, Cell: c.id})
	}
}

// sealElastic converts the elastic parse phase into the final classic
// piece: the piece's read version is the clock now, and the window must be
// valid at this instant (it seeds the piece's read set). Subsequent reads
// behave classically against the piece read version, and commit validates
// window plus reads exactly like a classic transaction.
func (tx *Tx) sealElastic() {
	tx.rv = tx.tm.clock.Load()
	if !tx.windowValid() {
		tx.abort(AbortWindowInvalid)
	}
	tx.reads = append(tx.reads, tx.window...)
}
