package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
	"ule/internal/stats"
)

// TrialResult is the streamed per-trial record: the trial identity plus
// the scalar measurements reduced from the full sim.Result (which is
// discarded immediately — statuses and other O(n) state
// never accumulate across a sweep).
type TrialResult struct {
	Trial
	// N, M describe the instantiated graph.
	N int `json:"n"`
	M int `json:"m"`
	// Outcome holds the measurements (its fields are inlined in the JSON
	// record).
	core.Outcome
	// Err records a per-trial model violation or a broken Table 1
	// guarantee ("" = clean run); only the latter keeps the Outcome. The
	// sweep continues past trial errors; Report.Errors counts them.
	Err string `json:"err,omitempty"`
}

// GroupStats aggregates every repetition of one (algo, graph, mode, wake,
// delay, fault) cell. Delay is empty for synchronous cells; Fault is
// empty for fault-free cells.
type GroupStats struct {
	Algo   string `json:"algo"`
	Graph  string `json:"graph"`
	Mode   string `json:"mode"`
	Wake   string `json:"wake"`
	Delay  string `json:"delay_model,omitempty"`
	Fault  string `json:"fault_model,omitempty"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	D      int    `json:"d,omitempty"`
	Trials int    `json:"trials"`
	Errors int    `json:"errors,omitempty"`
	// Messages/Rounds summarize the clean trials and those that broke their
	// Table 1 row (core.ErrGuarantee); Success is the fraction of them that
	// are clean and elect a unique leader.
	Messages stats.Summary `json:"messages"`
	Rounds   stats.Summary `json:"rounds"` // LastActive per trial
	Bits     stats.Summary `json:"bits"`
	Success  float64       `json:"success"`
	// Survival is the fraction of those trials satisfying the
	// fault-tolerant success condition (unique live leader); only
	// emitted for fault cells.
	Survival float64 `json:"survival,omitempty"`
}

// Report is the end-of-sweep synthesis returned by Run and appended by the
// JSON emitter.
type Report struct {
	Spec   Spec         `json:"spec"`
	Total  int          `json:"total_trials"`
	Errors int          `json:"errors,omitempty"`
	Groups []GroupStats `json:"groups"`

	// Elapsed and Workers describe the execution, not the experiment;
	// they are excluded from emitter output to keep it deterministic.
	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`

	// plan is the compiled sweep the report came from; it owns the graphs.
	plan *Plan
}

// Graphs returns the instantiated graph axis, parallel to Spec.Graphs.
// Callers needing per-graph normalizations (e.g. rounds/D from the
// memoized exact diameter) use these instances instead of rebuilding.
// The run's own graphs are the Plan's and come back as they are; an entry
// no trial of it needed (a ranged or resumed Run, a merge) is instantiated
// here, on first call. The result is nil for a Report no Plan produced,
// and if such a late graph does not build.
func (r *Report) Graphs() []*graph.Graph {
	if r.plan == nil {
		return nil
	}
	graphs, _ := r.plan.Graphs()
	return graphs
}

// Group returns the aggregate for one cell, or nil if absent. The
// optional trailing arguments select a delay model (rest[0]) and a fault
// model (rest[1]); without them the first cell matching
// (algo, graph, mode, wake) is returned, which is unique for synchronous
// fault-free cells and for sweeps with a single delay/fault model.
func (r *Report) Group(algo, graphSpec, mode, wake string, rest ...string) *GroupStats {
	for i := range r.Groups {
		g := &r.Groups[i]
		if g.Algo == algo && g.Graph == graphSpec && g.Mode == mode && g.Wake == wake &&
			(len(rest) < 1 || g.Delay == rest[0]) &&
			(len(rest) < 2 || g.Fault == rest[1]) {
			return g
		}
	}
	return nil
}

// TrialRange selects a contiguous slice [Start, Start+Count) of a
// sweep's trial index space. Workers of a distributed run (internal/fleet)
// each execute one range and write one shard file.
type TrialRange struct {
	Start int
	Count int
}

// RunConfig tunes sweep execution (all fields optional).
type RunConfig struct {
	// Workers is the number of trials in flight (default GOMAXPROCS); the
	// calling goroutine is one of the workers.
	Workers int
	// Emitters receive every trial record in trial-index order, then the
	// final report.
	Emitters []Emitter
	// Progress, when set, is called after every completed trial with the
	// completed and total counts: one call at a time, on whichever worker
	// finished the trial, so the hook needs no locking of its own but must
	// not assume a goroutine. Both counts are range-local when Range is set.
	Progress func(done, total int)
	// Resume, when set, continues an interrupted binary sweep instead of
	// starting over: the compiled spec must hash-match the checkpoint's
	// header, the completed trial prefix is replayed from the checkpoint
	// file into the aggregator (not re-run and not re-emitted), and only
	// the remaining suffix executes. Pair it with the emitter returned by
	// ResumeBinary so the binary stream continues where it stopped; the
	// final document is byte-identical to an uninterrupted run. The
	// checkpoint's range must match Range (a full-document checkpoint
	// pairs with Range == nil).
	Resume *SweepCheckpoint
	// Range, when set, restricts execution to the trials in
	// [Start, Start+Count); emitted records keep their absolute trial
	// indices. Emitters still receive the full spec and total in Begin,
	// so a shard emitter can bind the shard to the whole sweep.
	Range *TrialRange
}

// groupAcc accumulates one cell online. The three metric accumulators are
// exact value→count multisets (stats.IntSample), so consumer memory is
// bounded by the number of distinct observed values per cell — flat in
// trial count — while the end-of-sweep summaries stay bit-identical to
// the old O(trials) float-slice path.
type groupAcc struct {
	key              [6]string
	n, m, d          int
	trials, errors   int
	unique           int
	liveUnique       int
	msgs, rounds, bs stats.IntSample
}

// add folds one emitted record into the cell accumulators.
func (acc *groupAcc) add(next *TrialResult) {
	acc.trials++
	if next.Err != "" {
		acc.errors++ // a broken guarantee is measured, never a success
		if !strings.HasPrefix(next.Err, core.ErrGuarantee.Error()) {
			return
		}
	}
	acc.msgs.Add(next.Messages)
	acc.rounds.Add(int64(next.LastActive))
	acc.bs.Add(next.Bits)
	if next.Unique && next.Err == "" {
		acc.unique++
	}
	if next.LiveUnique {
		acc.liveUnique++
	}
}

// sweepAgg is the sweep tail's online aggregator: it folds trial records
// (fed in trial-index order) into per-cell accumulators and builds the
// report groups, so a merged document's groups are bit-identical to a
// single-process run's.
type sweepAgg struct {
	groups []*groupAcc
	byKey  map[[6]string]*groupAcc
}

func (a *sweepAgg) add(next *TrialResult) {
	key := [6]string{next.Algo, next.Graph, next.Mode, next.Wake, next.Delay, next.Fault}
	acc, ok := a.byKey[key]
	if !ok {
		acc = &groupAcc{key: key, n: next.N, m: next.M, d: next.D}
		a.byKey[key] = acc
		a.groups = append(a.groups, acc)
	}
	acc.add(next)
}

// finish appends the group summaries (in first-appearance order, which is
// trial-index order) to rep and accumulates the error total.
func (a *sweepAgg) finish(rep *Report) {
	for _, acc := range a.groups {
		gs := GroupStats{
			Algo: acc.key[0], Graph: acc.key[1], Mode: acc.key[2], Wake: acc.key[3],
			Delay: acc.key[4], Fault: acc.key[5],
			N: acc.n, M: acc.m, D: acc.d,
			Trials:   acc.trials,
			Errors:   acc.errors,
			Messages: acc.msgs.Summary(),
			Rounds:   acc.rounds.Summary(),
			Bits:     acc.bs.Summary(),
		}
		if ran := acc.msgs.Count(); ran > 0 {
			gs.Success = float64(acc.unique) / float64(ran)
			if gs.Fault != "" {
				gs.Survival = float64(acc.liveUnique) / float64(ran)
			}
		}
		rep.Errors += acc.errors
		rep.Groups = append(rep.Groups, gs)
	}
}

// Run compiles the spec and executes it (Plan.Run). Per-trial model
// violations are recorded in the affected TrialResult and counted in the
// report; Run itself fails only on invalid specs or emitter errors.
func Run(spec Spec, rc RunConfig) (*Report, error) {
	p, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return p.Run(rc)
}

// Run executes the sweep — or rc.Range's slice of it — streaming records
// to the emitters and the online aggregator. It instantiates the graphs
// its trials touch before any emitter output, so a graph spec that does
// not build is a spec error like any other; the graphs and each worker's
// current Prepared stay with the Plan for the next Run.
//
// Trials are claimed one at a time, in index order, from one cursor; the
// caller's goroutine is worker 0 and Workers-1 goroutines join it for the
// run. The worker that finishes a trial takes the tail's lock and runs the
// ordered tail itself (sweepTail.put): nothing is handed to another
// goroutine, and a one-worker run starts none. An emitter error ends the
// claiming; Run returns it once the trials in flight are in.
func (p *Plan) Run(rc RunConfig) (*Report, error) {
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := trialShards(workers, rc.Range != nil)

	// The executed range: the whole sweep, or rc.Range's slice of it.
	rangeStart, rangeCount := 0, p.total
	if rc.Range != nil {
		rangeStart, rangeCount = rc.Range.Start, rc.Range.Count
		if rangeStart < 0 || rangeCount <= 0 || rangeStart+rangeCount > p.total {
			return nil, fmt.Errorf("harness: trial range [%d,%d) outside sweep of %d trials", rangeStart, rangeStart+rangeCount, p.total)
		}
	}

	// A resumed sweep re-aggregates the durable prefix from the
	// checkpoint file; those trials are neither re-run nor re-emitted.
	completed := 0
	if rc.Resume != nil {
		if err := rc.Resume.check(p.hash); err != nil {
			return nil, err
		}
		if rc.Resume.Start != rangeStart || rc.Resume.Count != rangeCount {
			return nil, fmt.Errorf("harness: resume checkpoint covers [%d,%d), run range is [%d,%d)",
				rc.Resume.Start, rc.Resume.Start+rc.Resume.Count, rangeStart, rangeStart+rangeCount)
		}
		completed = rc.Resume.Completed
	}
	// Cells are graph-major, so the n trials left to run, from first on,
	// touch one contiguous stretch of the graph axis.
	first, n := rangeStart+completed, rangeCount-completed
	if n > 0 {
		for gi := p.cells[first/p.reps].graphIdx; gi <= p.cells[(first+n-1)/p.reps].graphIdx; gi++ {
			if _, err := p.graph(gi); err != nil {
				return nil, err
			}
		}
	}
	tail, err := p.newTail(rc.Emitters, first)
	if err != nil {
		return nil, err
	}
	if rc.Resume != nil {
		if err := rc.Resume.replay(tail); err != nil {
			return nil, fmt.Errorf("harness: resume replay: %w", err)
		}
	}

	for len(p.states) < workers {
		p.states = append(p.states, workerState{})
	}
	var (
		cursor atomic.Int64 // trials claimed so far, counted from first
		mu     sync.Mutex   // guards tail and done, and serializes Progress
		done   = completed
		wg     sync.WaitGroup
	)
	work := func(ws *workerState) {
		defer wg.Done()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			tr := p.runTrial(p.trial(first+i), shards, ws)
			mu.Lock()
			done++
			if rc.Progress != nil {
				rc.Progress(done, rangeCount)
			}
			if tail.put(tr) != nil {
				cursor.Store(int64(n)) // an emitter failed: nothing is left to claim
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work(&p.states[w])
	}
	work(&p.states[0])
	wg.Wait()
	return tail.end(workers)
}

// trialShards is the one override of the engine's shard count
// (core.RunOpts.Shards) outside tests. Several workers, or a range (one
// process's slice of a fleet's sweep), already fill the cores with whole
// trials, so each trial runs on one shard; otherwise 0 leaves the choice
// to the engine (sim.EffectiveShards). Output is the same bytes either way.
func trialShards(workers int, ranged bool) int {
	if workers > 1 || ranged {
		return 1
	}
	return 0
}

// workerState is one worker's private trial machinery, kept by the Plan
// across Runs: a Prepared, rebound whenever the worker enters another
// (graph, algorithm) cell, and a single sim.Result recycled across every
// trial the worker runs — each trial is reduced to a TrialResult before
// the next one overwrites it, so the O(n) statuses and leader list are
// allocated once per worker rather than once per trial. Claims are in
// index order and cells graph → algorithm major, so a worker never
// returns to a (graph, algorithm) it has left within a run: one Prepared
// is the whole cache.
type workerState struct {
	prep core.Prepared
	res  sim.Result
}

// runTrial runs one trial on the worker's Prepared and recycled Result
// and reduces it to the streamed record. The record carries the granted
// diameter even when the run fails, so it shows exactly what the
// algorithm was told.
func (p *Plan) runTrial(t Trial, shards int, ws *workerState) TrialResult {
	g := p.graphs[t.graphIdx] // instantiated by Run before the first claim
	tr := TrialResult{Trial: t, N: g.N(), M: g.M()}
	prep := &ws.prep
	wake, err := WakeSchedule(t.Wake, g.N(), t.Seed)
	if err == nil && (prep.Graph() != g || prep.Spec().Name != t.Algo) {
		err = prep.Rebind(g, t.Algo)
	}
	ro := core.RunOpts{
		Seed:             t.Seed,
		SmallIDs:         p.spec.SmallIDs,
		DiameterEstimate: p.spec.DiameterEstimate,
		MaxRounds:        p.spec.MaxRounds,
		Model:            t.model,
		Shards:           shards,
		Wake:             wake,
		Opt:              p.spec.Opt,
	}
	if err == nil {
		tr.D = prep.Diameter(ro)
		err = prep.RunInto(ro, &ws.res)
	}
	if err != nil {
		tr.Err = err.Error()
	}
	if err == nil || errors.Is(err, core.ErrGuarantee) {
		tr.Outcome = prep.Reduce(ro, &ws.res)
	}
	return tr
}

// Smoke is a small built-in sweep used by `make sweep-smoke` and the CI
// pipeline: every registered algorithm on two graph families, in the
// synchronous model and in the asynchronous model under all three
// built-in delay schedules.
func Smoke() Spec {
	return Spec{
		Name:     "smoke",
		Algos:    core.Names(),
		Graphs:   []string{"ring:16", "random:24:60"},
		Trials:   2,
		Seed:     1,
		Modes:    []string{"congest", "async"},
		Delays:   []string{"unit", "random:4", "fifo:4"},
		SmallIDs: true,
	}
}
