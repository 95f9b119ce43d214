package storm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sched"
)

// This file is the storm shrinker: when a seeded storm fails, the seed
// replays the failure but the schedule it fixes is hundreds of
// transactions wide — far too big to stare at. Shrink bisects the
// per-worker op sequences (ddmin over the captured OpRecords, re-running
// the candidate schedule several times per probe since scheduling is
// nondeterministic) down to a minimal still-failing schedule, and emits it
// as a sched.TinyCase so the surviving transactions can be handed straight
// to the exhaustive tiny-interleaving explorer.

// replayer is the optional workload capability the shrinker needs: execute
// one previously captured op record's INPUTS afresh (results are
// recomputed, never trusted from the capture).
type replayer interface {
	replay(rec OpRecord) (OpRecord, error)
}

// replay re-executes a captured set transaction.
func (w *setWorkload) replay(rec OpRecord) (OpRecord, error) {
	op := rec.Ops[0]
	if op.Kind == OpAddIfAbsent {
		return w.execAddIfAbsent(op.Key, op.Val)
	}
	return w.exec(rec.Sem, Op{Kind: op.Kind, Key: op.Key})
}

// replay re-executes a captured treemap transaction.
func (w *treeWorkload) replay(rec OpRecord) (OpRecord, error) {
	op := rec.Ops[0]
	return w.exec(rec.Sem, Op{Kind: op.Kind, Key: op.Key, Val: op.Val})
}

// replay re-executes a captured queue transaction.
func (w *queueWorkload) replay(rec OpRecord) (OpRecord, error) {
	op := rec.Ops[0]
	return w.exec(rec.Sem, Op{Kind: op.Kind, Val: op.Val})
}

// replay re-executes a captured cells transaction (input fields only — the
// captured read results are results, not inputs).
func (w *cellsWorkload) replay(rec OpRecord) (OpRecord, error) {
	ops := make([]Op, len(rec.Ops))
	for i, op := range rec.Ops {
		ops[i] = Op{Kind: op.Kind, Key: op.Key, Val: op.Val}
	}
	return w.exec(rec.Sem, ops)
}

// replay re-executes a captured cache transaction.
func (w *cacheWorkload) replay(rec OpRecord) (OpRecord, error) {
	op := rec.Ops[0]
	return w.exec(rec.Sem, Op{Kind: op.Kind, Key: op.Key, Val: op.Val})
}

// replay re-executes a captured bank transaction. OrElse-routed transfers
// are replayed as plain conditional transfers: the input (from, to,
// amount) is what the shrinker preserves, not the combinator plumbing.
func (w *bankWorkload) replay(rec OpRecord) (OpRecord, error) {
	op := rec.Ops[0]
	if op.Kind == OpSum {
		return w.execSum(rec.Sem)
	}
	sem := rec.Sem
	if sem == core.Elastic && !w.elasticOK {
		sem = core.Classic
	}
	return w.execTransfer(sem, op.Key, op.Val, op.Int)
}

// replayRun executes fixed per-worker op sequences — a shrink candidate —
// against a fresh TM and workload, then verifies exactly like Run: same
// history analysis, same per-semantics verdict, same model check.
func replayRun(cfg Config, setup []OpRecord, workers [][]OpRecord) (*Report, error) {
	cfg = cfg.withDefaults()
	col := history.NewRingCollector(history.NewShardedCollector())
	var rec core.Recorder = col
	if cfg.WrapRecorder != nil {
		rec = cfg.WrapRecorder(col)
	}
	tm := core.New(core.WithRecorder(rec), core.WithElasticWindow(cfg.Window))
	w, err := newWorkload(cfg.Workload, tm, cfg.Keys, cfg.Window)
	if err != nil {
		return nil, err
	}
	r, ok := w.(replayer)
	if !ok {
		return nil, fmt.Errorf("storm: workload %q does not support replay", cfg.Workload)
	}

	rep := &Report{Workload: cfg.Workload, Seed: cfg.Seed}
	allRecs := make([]OpRecord, 0, len(setup))
	for _, s := range setup {
		out, rerr := r.replay(s)
		if rerr != nil {
			rep.WorkerErr = fmt.Errorf("setup: %w", rerr)
			finishReport(rep, cfg, col, tm, w, allRecs)
			return rep, nil
		}
		allRecs = append(allRecs, out)
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		workerErr error
		results   = make([][]OpRecord, len(workers))
	)
	for wi := range workers {
		if len(workers[wi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(wi int, ops []OpRecord) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed ^ uint64(wi+1)*0x9e3779b97f4a7c15))))
			out := make([]OpRecord, 0, len(ops))
			for i, op := range ops {
				if rng.Intn(100) < cfg.Chaos {
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
					} else {
						runtime.Gosched()
					}
				}
				res, rerr := r.replay(op)
				if rerr != nil {
					mu.Lock()
					if workerErr == nil {
						workerErr = fmt.Errorf("worker %d op %d: %w", wi, i, rerr)
					}
					mu.Unlock()
					return
				}
				out = append(out, res)
			}
			results[wi] = out
		}(wi, workers[wi])
	}
	wg.Wait()
	rep.WorkerErr = workerErr
	for _, rs := range results {
		allRecs = append(allRecs, rs...)
	}
	finishReport(rep, cfg, col, tm, w, allRecs)
	return rep, nil
}

// shrinkPos identifies one record within per-worker schedules.
type shrinkPos struct{ worker, idx int }

// buildSchedules materializes the per-worker schedules containing only the
// kept positions (order within each worker preserved — keep is always in
// flattened order).
func buildSchedules(workers [][]OpRecord, keep []shrinkPos) [][]OpRecord {
	out := make([][]OpRecord, len(workers))
	for _, p := range keep {
		out[p.worker] = append(out[p.worker], workers[p.worker][p.idx])
	}
	return out
}

// shrinkSchedules is the ddmin core: minimize the set of records (per
// worker, order preserved) such that failing still holds. failing must be
// true for the full schedule. It returns the minimal schedules and how
// many candidate probes were made. The function is deterministic given a
// deterministic failing predicate, which is what the synthetic-history
// unit test pins.
func shrinkSchedules(workers [][]OpRecord, failing func([][]OpRecord) bool) ([][]OpRecord, int) {
	var cur []shrinkPos
	for wi := range workers {
		for i := range workers[wi] {
			cur = append(cur, shrinkPos{worker: wi, idx: i})
		}
	}
	probes := 0
	try := func(cand []shrinkPos) bool {
		probes++
		return failing(buildSchedules(workers, cand))
	}
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]shrinkPos, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				continue
			}
			if try(cand) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return buildSchedules(workers, cur), probes
}

// ShrinkResult is a minimized failing schedule.
type ShrinkResult struct {
	// Setup is the serial prepopulation, ddmin-shrunk AFTER the workers
	// (against the already-minimal concurrent schedule): most failures
	// need only a fraction of the seeded base state, and a minimal
	// reproduction should say which fraction.
	Setup []OpRecord
	// Workers holds the minimal per-worker op sequences that still fail.
	Workers [][]OpRecord
	// Records is the total number of surviving worker records.
	Records int
	// Probes counts candidate schedules tried (worker and setup rounds);
	// Replays counts storm re-executions (Probes × up to attempts each).
	Probes, Replays int
	// Tiny is the minimal schedule as an explorer-ready tiny case: one
	// access program per surviving transaction (worker ordering dropped —
	// the explorer enumerates all interleavings, a superset).
	Tiny sched.TinyCase
	// Explore is the exhaustive interleaving exploration of Tiny, run
	// automatically when the minimal schedule fits the explorer's limits
	// (up to 3 programs, 9 accesses); nil when the schedule is too big or
	// the case is inexplorable (ExploreErr says why).
	Explore    *ExploreReport
	ExploreErr error
	// Report is a failing report of the minimal schedule.
	Report *Report
}

// Shrink runs the seeded storm (up to attempts times) and, when it fails,
// bisects the per-worker op sequences to a minimal schedule that still
// fails, re-running each candidate up to attempts times (scheduling is
// nondeterministic; any failing run keeps the candidate). It returns
// (nil, nil) when the storm passes every attempt, and an error when the
// workload cannot replay fixed schedules or the failure never reproduces
// under replay.
func Shrink(cfg Config, attempts int) (*ShrinkResult, error) {
	cfg = cfg.withDefaults()
	if attempts <= 0 {
		attempts = 3
	}
	// Probe replay support up front: an unsupported workload is a
	// deterministic capability gap, and reporting it as "did not
	// reproduce" would send the operator chasing nondeterminism.
	probe, err := newWorkload(cfg.Workload, core.New(), cfg.Keys, cfg.Window)
	if err != nil {
		return nil, err
	}
	if c, ok := probe.(interface{ cleanup() }); ok {
		defer c.cleanup()
	}
	if _, ok := probe.(replayer); !ok {
		return nil, fmt.Errorf("storm: workload %q does not support replay; shrinking unavailable", cfg.Workload)
	}
	// The initial reproduction gets the same retry budget as every ddmin
	// probe: the failure stormcheck just observed may be scheduling-
	// dependent, and one unlucky clean rerun must not end the hunt.
	cfg.KeepOps = true
	var rep *Report
	for a := 0; a < attempts; a++ {
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		if r.Err() != nil {
			rep = r
			break
		}
	}
	if rep == nil {
		return nil, nil
	}

	replays := 0
	var lastFailing *Report
	var replayErr error
	failingWith := func(setup []OpRecord, workers [][]OpRecord) bool {
		for a := 0; a < attempts; a++ {
			replays++
			r, rerr := replayRun(cfg, setup, workers)
			if rerr != nil {
				if replayErr == nil {
					replayErr = rerr
				}
				return false
			}
			if r.Err() != nil {
				lastFailing = r
				return true
			}
		}
		return false
	}
	failing := func(workers [][]OpRecord) bool { return failingWith(rep.SetupOps, workers) }
	if !failing(rep.WorkerOps) {
		if replayErr != nil {
			return nil, fmt.Errorf("storm: replay of seed %d failed: %w", cfg.Seed, replayErr)
		}
		return nil, fmt.Errorf("storm: seed %d failure did not reproduce under replay (%d attempt(s))",
			cfg.Seed, attempts)
	}
	minimal, probes := shrinkSchedules(rep.WorkerOps, failing)

	// Second ddmin round: the serial prepopulation, minimized against the
	// already-minimal workers (one synthetic "worker" holding the setup —
	// replayRun executes it serially either way). ddmin never probes the
	// empty candidate, so an explicit probe finishes the job when every
	// setup record turned out to be dead weight.
	minSetup, setupProbes := rep.SetupOps, 0
	if len(minSetup) > 0 {
		shrunk, p := shrinkSchedules([][]OpRecord{minSetup}, func(cand [][]OpRecord) bool {
			return failingWith(cand[0], minimal)
		})
		minSetup, setupProbes = shrunk[0], p
		if len(minSetup) > 0 && failingWith(nil, minimal) {
			minSetup = nil
		}
		setupProbes++
	}

	res := &ShrinkResult{
		Setup:   minSetup,
		Workers: minimal,
		Probes:  probes + setupProbes + 1,
		Replays: replays,
		Tiny:    tinyCaseFrom(cfg.Workload, minimal),
		Report:  lastFailing,
	}
	for _, ops := range minimal {
		res.Records += len(ops)
	}

	// When the minimal schedule fits the exhaustive explorer's limits,
	// feed it straight in: the shrinker isolated the conflict shape, the
	// explorer then enumerates EVERY interleaving of it. An inexplorable
	// case is reported, not fatal.
	progs := tinyProgramsFrom(minimal)
	total := 0
	for _, p := range progs {
		total += len(p.Accesses)
	}
	if n := len(progs); n > 0 && n <= maxTinyPrograms && total <= maxTinyAccesses {
		res.Explore, res.ExploreErr = ExploreTiny(res.Tiny.Name, progs)
	}
	return res, nil
}

// tinyProgramsFrom renders a minimal schedule as explorer programs: every
// surviving transaction becomes one access program over key-named
// locations, keeping its recorded semantics (an abstraction — a structure
// op touches more cells than its key — but faithful enough to seed the
// exhaustive explorer with the conflict shape the shrinker isolated).
func tinyProgramsFrom(workers [][]OpRecord) []TinyProgram {
	rd := func(loc string) history.Access { return history.Access{Kind: history.OpRead, Loc: loc} }
	wr := func(loc string) history.Access { return history.Access{Kind: history.OpWrite, Loc: loc} }
	key := func(k int) string { return fmt.Sprintf("k%d", k) }
	var progs []TinyProgram
	for _, ops := range workers {
		for _, rec := range ops {
			var p []history.Access
			for _, op := range rec.Ops {
				switch op.Kind {
				case OpAdd, OpRemove, OpPut, OpDelete:
					p = append(p, rd(key(op.Key)), wr(key(op.Key)))
				case OpContains, OpGet, OpRead, OpPeek:
					p = append(p, rd(key(op.Key)))
				case OpWrite:
					p = append(p, wr(key(op.Key)))
				case OpSize, OpLen, OpSum:
					p = append(p, rd("*"))
				case OpEnq:
					p = append(p, wr("q"))
				case OpDeq:
					p = append(p, rd("q"), wr("q"))
				case OpTransfer:
					p = append(p, rd(key(op.Key)), rd(key(op.Val)), wr(key(op.Key)), wr(key(op.Val)))
				case OpAddIfAbsent:
					p = append(p, rd(key(op.Val)), rd(key(op.Key)), wr(key(op.Key)))
				}
			}
			if len(p) > 0 {
				progs = append(progs, TinyProgram{Sem: rec.Sem, Accesses: p})
			}
		}
	}
	return progs
}

// tinyCaseFrom is tinyProgramsFrom flattened into a sched.TinyCase (the
// serializable form stormcheck prints; semantics are dropped there).
func tinyCaseFrom(name string, workers [][]OpRecord) sched.TinyCase {
	progs := tinyProgramsFrom(workers)
	raw := make([][]history.Access, len(progs))
	for i, p := range progs {
		raw[i] = p.Accesses
	}
	return sched.TinyCase{Name: "shrunk-" + name, Programs: raw}
}

// String renders the minimal schedule for CLI output: one line per worker,
// one compact token per surviving transaction.
func (r *ShrinkResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shrunk to %d transaction(s) + %d setup record(s) over %d probe(s), %d replay(s):\n",
		r.Records, len(r.Setup), r.Probes, r.Replays)
	for wi, ops := range r.Workers {
		if len(ops) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  worker %d:", wi)
		for _, rec := range ops {
			for _, op := range rec.Ops {
				fmt.Fprintf(&b, " %s(k=%d,v=%d)@%v", op.Kind, op.Key, op.Val, rec.Sem)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  tiny case %q: %d program(s)", r.Tiny.Name, len(r.Tiny.Programs))
	switch {
	case r.Explore != nil:
		fmt.Fprintf(&b, "; explored %d schedule(s): %d failing", r.Explore.Schedules, len(r.Explore.Failures))
	case r.ExploreErr != nil:
		fmt.Fprintf(&b, "; exploration unavailable: %v", r.ExploreErr)
	}
	return b.String()
}
