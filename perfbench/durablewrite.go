package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
)

// replays is how many times recovery replays the same directory; the
// median is reported.
const replays = 3

// durableWrite is the disk workload: write-through durable puts and
// cache-fronted gets over a map the cache holds whole, with client 0
// taking a pinned checkpoint every checkpointEvery of its ops.
type durableWrite struct {
	frontedMap
	dir   string
	store *persistmap.Store[int]
	wal   *persistmap.WAL[int]

	// acked holds each key's last acknowledged value. Clients write
	// disjoint halves of the keys, so no two write one element.
	acked []int

	// ckptSeq is odd while a checkpoint runs: a put that sees it odd, or
	// sees it change, overlapped one.
	ckptSeq atomic.Uint64
	// Checkpoint accounting (client 0 only).
	ckpts, ckptBytes, ckptKeys int64
	maxPins                    int
	walMark                    walsync.Stats // WAL counters at mark time

	// ackMu guards ackTimes, the traced run's per-transaction durable-ack
	// times, keyed by transaction id.
	ackMu    sync.Mutex
	ackTimes map[uint64]time.Duration
}

func setupDurableWrite(dir string, traced bool) (instance, error) {
	tm := core.New()
	w := &durableWrite{
		frontedMap: frontedMap{tm: tm, m: persistmap.New[int](tm), c: cache.New[int](tm, durableKeys)},
		dir:        dir,
		acked:      make([]int, durableKeys),
	}
	st, err := persistmap.NewStore[int](dir, persistmap.IntCodec{})
	if err != nil {
		return nil, err
	}
	w.store = st
	// WALOptions{}: ack after fsync, drain-all batching, 4 MiB segments.
	if w.wal, err = st.OpenWAL(persistmap.WALOptions{}); err != nil {
		return nil, err
	}
	w.m.AttachWAL(w.wal, true)
	if traced {
		w.ackTimes = map[uint64]time.Duration{}
		tm.SetDurableAck(func(tx *core.Tx) error {
			t0 := time.Now()
			err := w.wal.Ack(tx)
			d := time.Since(t0)
			w.ackMu.Lock()
			w.ackTimes[tx.ID()] = d
			w.ackMu.Unlock()
			return err
		})
	}
	if err := w.prefill(durableKeys); err != nil {
		w.close()
		return nil, err
	}
	keys := make([]int, durableKeys)
	for k := range keys {
		keys[k] = k
		w.acked[k] = valueFor(k, 0)
	}
	if err := w.warm(keys); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.checkpoint(nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// ackTime returns and forgets the durable-ack time of a transaction.
func (w *durableWrite) ackTime(id uint64) (time.Duration, bool) {
	w.ackMu.Lock()
	d, ok := w.ackTimes[id]
	delete(w.ackTimes, id)
	w.ackMu.Unlock()
	return d, ok
}

// acker is implemented by workloads whose commits wait on a durable ack.
type acker interface {
	ackTime(txID uint64) (time.Duration, bool)
}

func (w *durableWrite) do(c *client, o op) (int, error) {
	switch o.kind {
	case opGet:
		return 1, w.get(c, o.key)
	case opCheckpoint:
		_, err := w.checkpoint(c)
		return 2, err
	}
	val := valueFor(o.key, c.s.n)
	var s0 uint64
	var t0 time.Time
	if c.tr != nil {
		s0, t0 = w.ckptSeq.Load(), time.Now()
	}
	if err := w.put(c, o.key, val); err != nil {
		return 0, err
	}
	w.acked[o.key] = val
	if c.tr != nil {
		if s1 := w.ckptSeq.Load(); s0%2 == 1 || s1 != s0 {
			c.tr.h[lWriterPut].add(time.Since(t0))
		}
	}
	return 0, nil
}

// checkpoint is the pinned backup under write load: PinSnapshot,
// BackupAt, Store.WriteFull, WAL.TrimTo, Release. c is nil during set-up.
func (w *durableWrite) checkpoint(c *client) (*persistmap.Backup[int], error) {
	w.ckptSeq.Add(1)
	defer w.ckptSeq.Add(1)
	var t *clientTrace
	if c != nil {
		t = c.tr
	}
	if t != nil {
		t.beginOp("ckpt.checkpoint", time.Now())
		defer func() { t.endOp(time.Now()) }()
	}
	pin, err := w.tm.PinSnapshot()
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	w.maxPins = max(w.maxPins, w.tm.PinnedVersions())
	var b *persistmap.Backup[int]
	if err := t.timed(lCkptBackup, func() (err error) {
		b, err = w.m.BackupAt(pin)
		return err
	}); err != nil {
		return nil, err
	}
	if b.Len() != durableKeys {
		return nil, fmt.Errorf("checkpoint at version %d holds %d keys, want %d", b.Version, b.Len(), durableKeys)
	}
	var path string
	if err := t.timed(lCkptWrite, func() (err error) {
		path, err = w.store.WriteFull(b)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.timed(lCkptTrim, func() error {
		_, err := w.wal.TrimTo(b.Version)
		return err
	}); err != nil {
		return nil, err
	}
	if c != nil {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		w.ckpts++
		w.ckptBytes += fi.Size()
		w.ckptKeys += int64(b.Len())
	}
	return b, nil
}

func (w *durableWrite) stats() core.Stats { return w.tm.Stats() }

func (w *durableWrite) mark() {
	w.frontedMap.mark()
	if w.ackTimes != nil {
		clear(w.ackTimes) // set-up's commits, never looked up
	}
	w.walMark = w.wal.Stats()
	w.ckpts, w.ckptBytes, w.ckptKeys, w.maxPins = 0, 0, 0, 0
}

func (w *durableWrite) finish(rep *report) error {
	rep.printf("config: clock=%s cache_stripes=%d cache_capacity=%d keys=%d get_pct=%d checkpoint_every=%d wal=durable flush=\"WALOptions{}: ack after fsync, drain-all batching, 4 MiB segments\" wal_fs=%s",
		w.tm.ClockScheme(), w.c.Stripes(), w.c.Capacity(), durableKeys, durableGetPct, checkpointEvery, fsType(w.dir))
	if err := w.finishCache(rep); err != nil {
		return err
	}
	if err := w.wal.Close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	// Counters since mark. Every put of the run is one WAL record binding
	// one 8-byte key to one 8-byte value.
	ws := w.wal.Stats()
	recs := float64(ws.Records - w.walMark.Records)
	syncs := float64(ws.Batches - w.walMark.Batches)
	bytes := float64(ws.Bytes - w.walMark.Bytes)
	rep.set("wal.records_per_fsync", ratio(recs, syncs), "count")
	rep.set("wal.fsyncs_per_s", syncs/rep.elapsed.Seconds(), "1/s")
	rep.set("wal.bytes_per_record", ratio(bytes, recs), "B")
	rep.set("wal.segments", float64(ws.Segments), "count")
	rep.set("ckpt.bytes_per_key", ratio(float64(w.ckptBytes), float64(w.ckptKeys)), "B")
	rep.set("store.bytes_per_user_byte", ratio(bytes+float64(w.ckptBytes), 16*recs), "ratio")
	rep.set("core.pinned_versions_max", float64(w.maxPins), "count")
	rep.printf("wal: records=%.0f fsyncs=%.0f records_per_fsync=%.4f max_batch=%d segments=%d bytes=%.0f checkpoints=%d checkpoint_bytes=%d",
		recs, syncs, ratio(recs, syncs), ws.MaxBatch, ws.Segments, bytes, w.ckpts, w.ckptBytes)

	// Recovery: replay the closed directory into a fresh TM, several
	// times; the first replay is checked against every acknowledged put.
	var times []float64
	var info *persistmap.ReplayInfo
	for i := 0; i < replays; i++ {
		tm := core.New()
		m := persistmap.New[int](tm)
		st, err := persistmap.NewStore[int](w.dir, persistmap.IntCodec{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		info, err = st.Replay(m)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if i == 0 {
			w.checkRecovered(tm, m, rep)
		}
	}
	rec := median(times)
	rep.set("recovery.replay_ms", rec*1e3, "ms")
	rep.set("recovery.records_read", float64(info.Records), "count")
	rep.set("recovery.records_applied", float64(info.Applied), "count")
	rep.printf("recovery_s=%.6f s (median of %d replays) records_read=%d records_applied=%d segments=%d chain_version=%d",
		rec, replays, info.Records, info.Applied, info.Segments, info.ChainVersion)
	return nil
}

// checkRecovered compares the replayed map with every acknowledged put.
func (w *durableWrite) checkRecovered(tm *core.TM, m *persistmap.Map[int], rep *report) {
	wrong := 0
	first := ""
	err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		wrong, first = 0, ""
		for k, want := range w.acked {
			got, ok := m.GetTx(tx, k)
			if !ok || got != want {
				if wrong == 0 {
					first = fmt.Sprintf("key %d: recovered %#x (present %v), last acknowledged %#x", k, got, ok, want)
				}
				wrong++
			}
		}
		return nil
	})
	if err != nil {
		rep.fail("reading the recovered map: %v", err)
		return
	}
	if wrong > 0 {
		rep.fail("recovery lost %d acknowledged puts; first: %s", wrong, first)
	}
}

func (w *durableWrite) close() {
	if w.wal != nil {
		w.wal.Close() // idempotent; finish checked the error of the run's WAL
	}
	os.RemoveAll(w.dir)
}
