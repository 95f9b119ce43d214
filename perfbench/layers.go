package main

import (
	"fmt"
	"math"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and on which workload. End-to-end
// metrics are named by operation as the report prints them (get_p50_us,
// put_p99_us, ...); the result line carries each workload's first
// operation's median as primary_p50_us and its second's as
// secondary_p50_us.
type layerMetric struct {
	name, unit, better string
	moves              string
	// inResult marks the metrics of the final JSON line. A time measured
	// only where its layer is used (the WAL's ack time on durable-write,
	// say) is printed in the report but left out of the result, whose
	// per-layer metrics every workload must report.
	inResult bool
}

var layerMetrics = []layerMetric{
	{"core.attempts_per_commit", "count", "lower", "get_p99_us, put_p99_us on cached-read", true},
	{"core.abort_rate.read-invalid", "ratio", "lower", "get_p99_us, put_p99_us on cached-read", true},
	{"core.abort_rate.validation", "ratio", "lower", "get_p99_us, put_p99_us on cached-read", true},
	{"core.abort_rate.lock-contention", "ratio", "lower", "get_p99_us, put_p99_us on cached-read", true},
	{"core.body_us", "us", "lower", "get_p50_us on cached-read, transfer_p50_us on shard-transfer", true},
	{"core.commit_us", "us", "lower", "put_p50_us on cached-read, local_transfer_p50_us on shard-transfer", true},
	{"core.retry_wait_us", "us", "lower", "put_p99_us on cached-read", false},
	{"core.pinned_versions_max", "count", "lower", "checkpoint_p50_ms on durable-write", true},
	{"cache.get_us", "us", "lower", "get_p50_us on cached-read", false},
	{"cache.put_us", "us", "lower", "get_p50_us on cached-read", false},
	{"cache.hit_rate", "ratio", "higher", "get_p50_us, heap_live_mb on cached-read", true},
	{"cache.evictions_per_put", "ratio", "lower", "get_p50_us, heap_live_mb on cached-read", true},
	{"cache.demotions_per_eviction", "ratio", "lower", "get_p50_us, heap_live_mb on cached-read", true},
	{"cache.fill_ratio", "ratio", "higher", "get_p50_us on durable-write", true},
	{"map.get_us", "us", "lower", "get_p50_us on cached-read", false},
	{"map.put_us", "us", "lower", "put_p50_us on cached-read and durable-write", false},
	{"wal.ack_p50_us", "us", "lower", "put_p50_us, ops_per_s on durable-write", false},
	{"wal.ack_p99_us", "us", "lower", "put_p99_us on durable-write", false},
	{"wal.records_per_fsync", "count", "higher", "put_p50_us, ops_per_s on durable-write", true},
	{"wal.fsyncs_per_s", "1/s", "lower", "put_p50_us, ops_per_s on durable-write", true},
	{"wal.bytes_per_record", "B", "lower", "put_p50_us, ops_per_s on durable-write", true},
	{"wal.segments", "count", "lower", "put_p50_us, ops_per_s on durable-write", true},
	{"ckpt.backup_ms", "ms", "lower", "checkpoint_p50_ms on durable-write", false},
	{"ckpt.write_ms", "ms", "lower", "checkpoint_p50_ms on durable-write", false},
	{"ckpt.trim_ms", "ms", "lower", "checkpoint_p50_ms on durable-write", false},
	{"ckpt.bytes_per_key", "B", "lower", "checkpoint_p50_ms on durable-write", true},
	{"ckpt.writer_put_p99_us", "us", "lower", "put_p99_us on durable-write", false},
	{"store.bytes_per_user_byte", "ratio", "lower", "put_p50_us on durable-write", true},
	{"recovery.replay_ms", "ms", "lower", "recovery_s on durable-write", false},
	{"recovery.records_read", "count", "lower", "recovery_s on durable-write", true},
	{"recovery.records_applied", "count", "lower", "recovery_s on durable-write", true},
	{"shard.attempts_per_cross", "count", "lower", "transfer_p50_us, transfer_p99_us on shard-transfer", true},
	{"shard.commit_us", "us", "lower", "transfer_p50_us, transfer_p99_us on shard-transfer", false},
	{"shard.abort_rate", "ratio", "lower", "transfer_p50_us, transfer_p99_us on shard-transfer", true},
	{"go.alloc_bytes_per_op", "B", "lower", "every p99 and heap_live_mb, every workload", true},
	{"go.gc_cycles_per_s", "1/s", "lower", "every p99 and heap_live_mb, every workload", true},
	{"trace.overhead_pct", "%", "lower", "none: the cost of the traced run's own spans", true},
}

// layerTimes names the span histograms reported under layer metric
// names: the metric, its histogram, the percentile and the unit scale.
var layerTimes = []struct {
	name  string
	l     layer
	q     float64
	scale float64
}{
	{"core.body_us", lBody, 0.5, 1e3},
	{"core.commit_us", lCommit, 0.5, 1e3},
	{"core.retry_wait_us", lRetryWait, 0.5, 1e3},
	{"cache.get_us", lCacheGet, 0.5, 1e3},
	{"cache.put_us", lCachePut, 0.5, 1e3},
	{"map.get_us", lMapGet, 0.5, 1e3},
	{"map.put_us", lMapPut, 0.5, 1e3},
	{"wal.ack_p50_us", lAck, 0.5, 1e3},
	{"wal.ack_p99_us", lAck, 0.99, 1e3},
	{"ckpt.backup_ms", lCkptBackup, 0.5, 1e6},
	{"ckpt.write_ms", lCkptWrite, 0.5, 1e6},
	{"ckpt.trim_ms", lCkptTrim, 0.5, 1e6},
	{"ckpt.writer_put_p99_us", lWriterPut, 0.99, 1e3},
	{"shard.commit_us", lShardCommit, 0.5, 1e3},
}

// printLayerMap prints every layer metric with its value and the
// end-to-end metric it should move.
func printLayerMap(workload string, m map[string]metric) {
	for _, l := range layerMetrics {
		v, ok := m[l.name]
		val := "n/a (layer not used by " + workload + ")"
		if ok && !math.IsNaN(v.Value) {
			val = fmt.Sprintf("%.6g %s", v.Value, v.Unit)
		}
		fmt.Printf("layer %s=%s -> %s\n", l.name, val, l.moves)
	}
}
