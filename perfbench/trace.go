package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// The traced run wraps every call the benchmark makes into the library in
// a span taken from the benchmark's own code. Time histograms and counters
// cover every op; full span records (name, start, end, parent, op id) are
// kept for one op in spanSampleEvery, up to maxSpans per client, and
// written out when the run ends.

// layer indexes the per-layer time histograms.
type layer int

const (
	lCacheGet layer = iota
	lCachePut
	lMapGet
	lMapPut
	lBody        // attempt closure self time, summed over an op's attempts
	lCommit      // Atomically minus closures, retry gaps and durable ack
	lRetryWait   // gaps between consecutive attempt closures of one op
	lAck         // WAL.Ack through TM.SetDurableAck
	lShardCommit // AtomicallyAll minus its closures
	lCkptBackup
	lCkptWrite
	lCkptTrim
	lWriterPut // puts that overlap a checkpoint
	nLayers
)

var layerNames = [nLayers]string{
	"cache.get", "cache.put", "map.get", "map.put", "core.body", "core.commit",
	"core.retry_wait", "wal.ack", "shard.commit", "ckpt.backup", "ckpt.write",
	"ckpt.trim", "ckpt.writer_put",
}

const (
	spanSampleEvery = 64
	maxSpans        = 1 << 16
)

// span is one recorded interval. Times are nanoseconds since the start
// of the measured phase; parent is an index into the same client's spans
// (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Client int    `json:"client"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// clientTrace is one client's tracing state; clients never share one.
type clientTrace struct {
	client int
	origin time.Time
	h      [nLayers]hist
	spans  []span

	// ack, when set, returns and forgets the durable-ack time the wrapped
	// WAL.Ack recorded for a transaction id; ok is false when the commit
	// did not wait on the ack (read-only commits skip it).
	ack func(txID uint64) (d time.Duration, ok bool)

	// Per-op state.
	opID        uint64
	sampled     bool
	root        int // root span index, -1 when not sampled
	cur         int // innermost open span index, -1 when none
	txID        uint64
	attempts    int
	attemptSum  time.Duration
	childSum    time.Duration // children of the running attempt
	bodySum     time.Duration
	retryGap    time.Duration
	lastEnd     time.Time
	attemptT0   time.Time
	attemptSpan int

	// Counters over every op.
	ops, retriedOps, crossCalls, crossClosures uint64
}

func newClientTrace(client int, origin time.Time) *clientTrace {
	return &clientTrace{client: client, origin: origin, root: -1, cur: -1}
}

func (t *clientTrace) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// open starts a span under the innermost open one, when the op is sampled.
func (t *clientTrace) open(name string, at time.Time) int {
	if !t.sampled || len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.opID, Client: t.client, Parent: t.cur, Start: t.ns(at)})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *clientTrace) close(i int, at time.Time) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.ns(at)
	t.cur = t.spans[i].Parent
}

// beginOp starts a new op's root span.
func (t *clientTrace) beginOp(name string, at time.Time) {
	t.ops++
	t.opID++
	t.sampled = t.opID%spanSampleEvery == 1
	t.cur = -1
	t.root = t.open(name, at)
	t.attempts, t.attemptSum, t.bodySum, t.retryGap = 0, 0, 0, 0
	t.lastEnd = time.Time{}
}

func (t *clientTrace) endOp(at time.Time) {
	t.close(t.root, at)
	t.root, t.cur = -1, -1
	if t.attempts > 1 {
		t.retriedOps++
		t.h[lRetryWait].add(t.retryGap)
	}
}

// beginAttempt and endAttempt bracket one run of an attempt closure;
// endAttempt is deferred, so it also runs when an abort unwinds the
// closure.
func (t *clientTrace) beginAttempt(name string) {
	now := time.Now()
	if t.attempts > 0 {
		t.retryGap += now.Sub(t.lastEnd)
	}
	t.attempts++
	t.childSum = 0
	t.attemptT0 = now
	t.attemptSpan = t.open(name, now)
}

func (t *clientTrace) endAttempt() {
	now := time.Now()
	d := now.Sub(t.attemptT0)
	t.attemptSum += d
	t.bodySum += d - t.childSum
	t.lastEnd = now
	t.cur = t.attemptSpan
	t.close(t.attemptSpan, now)
}

// child times one library call made inside an attempt closure; on a nil
// trace it only calls fn.
func (t *clientTrace) child(l layer, fn func()) {
	if t == nil {
		fn()
		return
	}
	t0 := time.Now()
	i := t.open(layerNames[l], t0)
	fn()
	t1 := time.Now()
	t.close(i, t1)
	d := t1.Sub(t0)
	t.childSum += d
	t.h[l].add(d)
}

// timed times one library call made outside any transaction; on a nil
// trace it only calls fn.
func (t *clientTrace) timed(l layer, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	i := t.open(layerNames[l], t0)
	err := fn()
	t1 := time.Now()
	t.close(i, t1)
	t.h[l].add(t1.Sub(t0))
	return err
}

// atomically runs fn as one Classic transaction on tm, traced when the
// client is.
func (c *client) atomically(tm *core.TM, fn func(tx *core.Tx) error) error {
	t := c.tr
	if t == nil {
		return tm.Atomically(core.Classic, fn)
	}
	t0 := time.Now()
	t.beginOp("core.atomically", t0)
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		t.txID = tx.ID()
		t.beginAttempt("core.attempt")
		defer t.endAttempt()
		return fn(tx)
	})
	t1 := time.Now()
	var ack time.Duration
	if t.ack != nil {
		var ok bool
		if ack, ok = t.ack(t.txID); ok {
			t.h[lAck].add(ack)
		}
	}
	t.h[lBody].add(t.bodySum)
	t.h[lCommit].add(t1.Sub(t0) - t.attemptSum - t.retryGap - ack)
	t.endOp(t1)
	return err
}

// atomicallyAll runs fn as one cross-shard transaction on p, traced when
// the client is.
func (c *client) atomicallyAll(p *shard.Partition, fn func(mt *shard.MultiTx) error) error {
	t := c.tr
	if t == nil {
		return p.AtomicallyAll(fn)
	}
	t0 := time.Now()
	t.beginOp("shard.atomically_all", t0)
	err := p.AtomicallyAll(func(mt *shard.MultiTx) error {
		t.beginAttempt("shard.closure")
		defer t.endAttempt()
		return fn(mt)
	})
	t1 := time.Now()
	t.crossCalls++
	t.crossClosures += uint64(t.attempts)
	t.h[lBody].add(t.bodySum)
	t.h[lShardCommit].add(t1.Sub(t0) - t.attemptSum)
	t.endOp(t1)
	return err
}

// writeSpans writes every client's sampled spans as JSON lines to path.
func writeSpans(path string, traces []*clientTrace) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, t := range traces {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("close %s: %w", path, err)
	}
	return n, nil
}
