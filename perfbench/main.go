// Command perfbench is the repository's end-to-end benchmark. It drives
// the library's public API with a closed loop of clients, checks that
// every result is correct, and prints each metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, for half of --seconds each, untraced and then with
// spans around every library call, and the metrics are the per-layer
// ones plus the tracing overhead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cached-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

const (
	// clients is the closed-loop client count: each waits for its reply
	// before sending the next request.
	clients = 2
	// windows is how many equal slices a run is cut into. Throughput and
	// latency percentiles are taken per slice and reported as the median
	// over slices, so one slice disturbed by another process on the host
	// does not move the result.
	windows = 40
	// maxClasses bounds the latency classes of one workload.
	maxClasses = 3
	// minSetups and setupBudget bound how often set-up is repeated: at
	// least minSetups times, and more while they take under setupBudget
	// in total, so cheap set-ups still give a steady median.
	minSetups   = 5
	maxSetups   = 41
	setupBudget = 500 * time.Millisecond
	// buildDir holds everything a run writes: the WAL directories and the
	// span files. It is relative to the working directory, the checkout.
	buildDir = ".bench_build"
)

// e2eMetrics are the end-to-end metrics of the result line. Every
// workload reports each of them: the primary class is the workload's
// headline operation (get, durable put, cross-shard transfer) and the
// secondary class its second one (put, get, single-shard transfer).
var e2eMetrics = []string{
	"ops_per_s", "primary_p50_us", "secondary_p50_us", "heap_live_mb", "setup_s",
}

// instance is one set-up workload, ready to serve client requests.
type instance interface {
	// do runs one op for c and returns its latency class.
	do(c *client, o op) (class int, err error)
	// stats returns the summed counters of every TM the workload uses.
	stats() core.Stats
	// mark snapshots the counters the run is measured against; it is
	// called after set-up, right before the clients start.
	mark()
	// finish runs after the clients stopped: it checks the results and
	// adds the workload's own metrics to rep.
	finish(rep *report) error
	// close releases the instance's files and goroutines.
	close()
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// classes names the latency classes; index 0 is the workload's
	// headline operation, index 1 its second one.
	classes []string
	setup   func(dir string, traced bool) (instance, error)
}

var workloads = []workload{
	{
		name:    "cached-read",
		why:     "in memory, Zipf keys over a map 8x the cache: the STM read/commit path, cache eviction and second-chance sweeps and tree lookups on misses do the work",
		classes: []string{"get", "put"},
		setup:   setupCachedRead,
	},
	{
		name:    "durable-write",
		why:     "durable puts acked after fsync, gets from a cache that holds every key, pinned checkpoints under write load: walsync, WAL encoding and checkpoints do the work",
		classes: []string{"put", "get", "checkpoint"},
		setup:   setupDurableWrite,
	},
	{
		name:    "shard-transfer",
		why:     "transfers over 4 shards, 3/4 of them cross-shard: 2PC prepare/decide/commit and per-shard commits do the work, with no cache and no disk",
		classes: []string{"transfer", "local_transfer"},
		setup:   setupShardTransfer,
	},
}

// client is one closed-loop load generator.
type client struct {
	id  int
	s   *stream
	tr  *clientTrace // nil when untraced
	ops [windows]uint64
	lat [windows][maxClasses]hist
	// failed counts ops that returned an error, bad the results that were
	// wrong; the first of each is kept for the report.
	failed, bad      uint64
	firstErr, badMsg string
}

func (c *client) wrong(format string, args ...any) {
	if c.bad == 0 {
		c.badMsg = fmt.Sprintf(format, args...)
	}
	c.bad++
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a phase's results.
type report struct {
	lines   []string
	metrics map[string]metric
	errs    []string
	// elapsed is the measured run's wall time.
	elapsed time.Duration
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// phase is the outcome of one measured run of a workload.
type phase struct {
	rep               *report
	attempted, failed uint64
	opsPerS           float64
	traces            []*clientTrace
}

func main() {
	name := flag.String("workload", "", "workload to run: cached-read, durable-write or shard-transfer")
	seed := flag.Uint64("seed", 1, "seed every client's op stream is derived from")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	dur := time.Duration(seconds) * time.Second
	runs := filepath.Join(buildDir, "run")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(runs, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q go=%s scratch_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), fsType(dir))
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%d clients=%d loop=closed windows=%d op_digest=%016x\n",
		w.name, seed, seconds, trace, clients, windows, streamDigest(w.name, seed, clients, 10000))
	fmt.Printf("why %s: %s\n", w.name, w.why)
	fmt.Printf("result line: primary_p50_us is %s_p50_us, secondary_p50_us is %s_p50_us\n", w.classes[0], w.classes[1])

	var out result
	if trace == 0 {
		ph, err := measure(w, seed, dur, dir, false)
		if err != nil {
			return err
		}
		printLines(ph.rep)
		e2e := map[string]metric{}
		for _, name := range e2eMetrics {
			e2e[name] = ph.rep.metrics[name]
		}
		out = resultOf(e2e, ph)
	} else {
		// The two phases share the run's time, so a traced run takes
		// as long as an untraced one.
		plain, err := measure(w, seed, dur/2, dir, false)
		if err != nil {
			return err
		}
		traced, err := measure(w, seed, dur/2, dir, true)
		if err != nil {
			return err
		}
		printLines(plain.rep)
		printLines(traced.rep)
		overhead := 100 * (plain.opsPerS - traced.opsPerS) / plain.opsPerS
		traced.rep.set("trace.overhead_pct", overhead, "%")
		fmt.Printf("trace overhead: untraced ops_per_s=%.1f traced ops_per_s=%.1f overhead=%.2f%%\n",
			plain.opsPerS, traced.opsPerS, overhead)
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		n, err := writeSpans(path, traced.traces)
		if err != nil {
			return err
		}
		fmt.Printf("trace spans=%d sampled 1/%d ops file=%s\n", n, spanSampleEvery, path)
		printLayerMap(w.name, traced.rep.metrics)
		layer := map[string]metric{}
		for _, l := range layerMetrics {
			if !l.inResult {
				continue
			}
			m, ok := traced.rep.metrics[l.name]
			if !ok {
				m = metric{Value: 0, Unit: l.unit}
			}
			layer[l.name] = m
		}
		out = resultOf(layer, plain, traced)
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !out.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func resultOf(m map[string]metric, phases ...*phase) result {
	r := result{Correct: true, Metrics: m}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		if len(ph.rep.errs) > 0 {
			r.Correct = false
		}
	}
	return r
}

func printLines(r *report) {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, e := range r.errs {
		fmt.Println("CHECK FAILED:", e)
	}
}

// measure sets the workload up (several times, keeping the last), runs
// the clients for dur, and collects the phase's metrics.
func measure(w *workload, seed uint64, dur time.Duration, dir string, traced bool) (*phase, error) {
	rep := newReport()
	tag := "e2e"
	if traced {
		tag = "traced"
	}

	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(filepath.Join(dir, fmt.Sprintf("%s-%d", tag, i)), traced)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		spent += d
		setups = append(setups, d.Seconds())
		if traced {
			break // set-up time is an end-to-end metric only
		}
	}
	defer inst.close()
	setupS := median(setups)

	runtime.GC()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{id: i, s: newStream(w.name, seed, i)}
	}
	inst.mark()
	before := inst.stats()
	rt0 := readRuntime()
	start := time.Now()
	if traced {
		for _, c := range cs {
			c.tr = newClientTrace(c.id, start)
		}
		if a, ok := inst.(acker); ok {
			for _, c := range cs {
				c.tr.ack = a.ackTime
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(c, inst, start, dur)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rt1 := readRuntime()
	after := inst.stats()

	// Live heap right after the run, with the workload's state still
	// reachable.
	runtime.GC()
	heapMB := float64(readRuntime().heapLive) / (1 << 20)
	runtime.KeepAlive(inst)

	ph := &phase{rep: rep}
	rates := make([]float64, windows)
	winDur := dur.Seconds() / windows
	var all [maxClasses]hist
	var win [windows][maxClasses]hist
	for _, c := range cs {
		for wi := 0; wi < windows; wi++ {
			rates[wi] += float64(c.ops[wi]) / winDur
			ph.attempted += c.ops[wi]
			for k := range w.classes {
				win[wi][k].merge(&c.lat[wi][k])
				all[k].merge(&c.lat[wi][k])
			}
		}
		ph.failed += c.failed
		if c.failed > 0 {
			rep.fail("client %d: %d ops failed, first: %s", c.id, c.failed, c.firstErr)
		}
		if c.bad > 0 {
			rep.fail("client %d: %d wrong results, first: %s", c.id, c.bad, c.badMsg)
		}
		if c.tr != nil {
			ph.traces = append(ph.traces, c.tr)
		}
	}
	ph.opsPerS = median(rates)

	rep.printf("[%s] setup_s=%.6f s (median of %d set-ups) elapsed_s=%.3f", tag, setupS, len(setups), elapsed.Seconds())
	rep.printf("[%s] ops_per_s=%.1f 1/s (median of %d windows; ops=%d) failed_ratio=%g (failed=%d attempted=%d)",
		tag, ph.opsPerS, windows, ph.attempted, ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	rep.printf("[%s] ops_per_s by window: %s", tag, strings.Trim(fmt.Sprintf("%.0f", rates), "[]"))
	rep.printf("[%s] heap_live_mb=%.3f MB (live heap after a forced GC at the end of the run)", tag, heapMB)
	classStats := make([]classLatency, len(w.classes))
	for k, cname := range w.classes {
		cl := latencyOf(&all[k], win[:], k)
		classStats[k] = cl
		scale, unit := 1e3, "us"
		if cname == "checkpoint" {
			scale, unit = 1e6, "ms"
		}
		rep.printf("[%s] %s_p50_%s=%.3f %s_p99_%s=%.3f (n=%d, %d beyond p99; median over windows) p999_%s=%.3f max_%s=%.3f (whole run)",
			tag, cname, unit, cl.p50/scale, cname, unit, cl.p99/scale, all[k].n, all[k].beyond(0.99),
			unit, all[k].quantile(0.999)/scale, unit, float64(all[k].max)/scale)
	}

	rep.elapsed = elapsed
	coreLayer(before, after, rep)
	rtLayer(rt0, rt1, ph.attempted, elapsed, rep)
	if traced {
		traceLayer(ph.traces, rep)
	}
	if err := inst.finish(rep); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	if !traced {
		rep.set("ops_per_s", ph.opsPerS, "1/s")
		rep.set("primary_p50_us", classStats[0].p50/1e3, "us")
		rep.set("secondary_p50_us", classStats[1].p50/1e3, "us")
		rep.set("heap_live_mb", heapMB, "MB")
		rep.set("setup_s", setupS, "s")
	}
	return ph, nil
}

// drive is one client's closed loop: generate an op, run it, record its
// latency in the window it completed in, until dur has passed.
func drive(c *client, inst instance, start time.Time, dur time.Duration) {
	for {
		o := c.s.next()
		t0 := time.Now()
		class, err := inst.do(c, o)
		t1 := time.Now()
		el := t1.Sub(start)
		if el >= dur {
			return
		}
		wi := int(el * windows / dur)
		c.ops[wi]++
		if err != nil {
			if c.failed == 0 {
				c.firstErr = fmt.Sprintf("op %+v: %v", o, err)
			}
			c.failed++
			continue
		}
		c.lat[wi][class].add(t1.Sub(t0))
	}
}

// classLatency is one latency class's reported percentiles, in ns.
type classLatency struct{ p50, p99 float64 }

// latencyOf takes each percentile per window and reports the median over
// the windows that hold enough samples for it (ten beyond the
// percentile); when none does, it falls back to the whole run.
func latencyOf(all *hist, win [][maxClasses]hist, k int) classLatency {
	pick := func(q float64) float64 {
		var vs []float64
		for i := range win {
			h := &win[i][k]
			if h.n > 0 && h.beyond(q) >= 10 {
				vs = append(vs, h.quantile(q))
			}
		}
		if len(vs) == 0 {
			return all.quantile(q)
		}
		return median(vs)
	}
	return classLatency{p50: pick(0.5), p99: pick(0.99)}
}

// coreLayer reports the STM counters' deltas over the run.
func coreLayer(before, after core.Stats, rep *report) {
	d := core.Stats{
		Commits:  after.Commits - before.Commits,
		Attempts: after.Attempts - before.Attempts,
		Aborts:   map[core.AbortReason]uint64{},
	}
	for r, n := range after.Aborts {
		d.Aborts[r] = n - before.Aborts[r]
	}
	rep.set("core.attempts_per_commit", ratio(float64(d.Attempts), float64(d.Commits)), "count")
	var parts []string
	for _, r := range []core.AbortReason{core.AbortReadInvalid, core.AbortValidation, core.AbortLockContention} {
		v := ratio(float64(d.Aborts[r]), float64(d.Attempts))
		rep.set("core.abort_rate."+r.String(), v, "ratio")
		parts = append(parts, fmt.Sprintf("%s=%.3g", r, v))
	}
	rep.printf("core: commits=%d attempts=%d attempts_per_commit=%.5f abort_rate %s (all reasons %d)",
		d.Commits, d.Attempts, ratio(float64(d.Attempts), float64(d.Commits)), strings.Join(parts, " "), d.TotalAborts())
}

// runtimeSample is the Go runtime counters the run reports.
type runtimeSample struct{ allocBytes, gcCycles, heapLive uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func rtLayer(a, b runtimeSample, ops uint64, elapsed time.Duration, rep *report) {
	perOp := ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
	gcs := float64(b.gcCycles-a.gcCycles) / elapsed.Seconds()
	rep.set("go.alloc_bytes_per_op", perOp, "B")
	rep.set("go.gc_cycles_per_s", gcs, "1/s")
	rep.printf("go: alloc_bytes_per_op=%.1f B gc_cycles_per_s=%.2f 1/s", perOp, gcs)
}

// traceLayer folds the clients' span histograms into per-layer metrics.
func traceLayer(traces []*clientTrace, rep *report) {
	var h [nLayers]hist
	var ops, retried, cross, closures uint64
	for _, t := range traces {
		for l := range h {
			h[l].merge(&t.h[l])
		}
		ops += t.ops
		retried += t.retriedOps
		cross += t.crossCalls
		closures += t.crossClosures
	}
	for l := layer(0); l < nLayers; l++ {
		if h[l].n > 0 {
			rep.printf("span %s: p50=%.3f us p99=%.3f us mean=%.3f us n=%d", layerNames[l],
				h[l].quantile(0.5)/1e3, h[l].quantile(0.99)/1e3, h[l].mean()/1e3, h[l].n)
		}
	}
	for _, lt := range layerTimes {
		if h[lt.l].n > 0 {
			unit := "us"
			if lt.scale == 1e6 {
				unit = "ms"
			}
			rep.set(lt.name, h[lt.l].quantile(lt.q)/lt.scale, unit)
		}
	}
	rep.printf("core.retry_wait: %d of %d traced transactions retried", retried, ops)
	if cross > 0 {
		rep.set("shard.attempts_per_cross", float64(closures)/float64(cross), "count")
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
