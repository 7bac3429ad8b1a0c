// Package serve is the election-as-a-service subsystem behind cmd/uled:
// a job manager executing single elections and whole sweeps on a bounded
// pool of reusable worker slots, with an HTTP front end (http.go) that
// streams sweep results as NDJSON.
//
// Slots are the request-scoped reuse unit. Each slot keeps slotPrepCap
// prepared cells — a core.Prepared, the Runner recycling the batch
// harness uses per worker, on a graph with its memoized diameter — and
// one recycled sim.Result, so a warm election request runs the same
// near-alloc-free fast path as a batch trial. The slot pool also bounds
// concurrency: at most Config.Slots requests execute at once, the
// rest queue on slot acquisition (and give up when their context ends).
//
// Async requests become jobs with a lifecycle (pending → running →
// done / failed / cancelled), cooperative cancellation (sweeps abort at
// the next trial boundary through an emitter hook) and TTL-based GC of
// finished jobs. Shutdown stops admission and drains in-flight jobs.
//
// Determinism: a request with a given seed produces byte-identical
// results to the batch path — elections reduce the same sim.Result the
// same way, sweeps run the same harness with the same trial expansion —
// pinned by serve_test.go; cmd/uled's test boots the real binary.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/harness"
	"ule/internal/sim"
)

// Service-wide expvar counters (exposed at /debug/vars). Registered once
// at package init; multiple Managers in one process (tests) share them.
var (
	statJobsInFlight = expvar.NewInt("uled_jobs_inflight")
	statElections    = expvar.NewInt("uled_elections_total")
	statSweeps       = expvar.NewInt("uled_sweeps_total")
	statTrials       = expvar.NewInt("uled_sweep_trials_total")
	statPrepHits     = expvar.NewInt("uled_prepared_reuse_hits")
	statPrepMisses   = expvar.NewInt("uled_prepared_reuse_misses")
	statPrepRebinds  = expvar.NewInt("uled_prepared_rebinds")
	statGraphHits    = expvar.NewInt("uled_graph_reuse_hits")
	statGraphMisses  = expvar.NewInt("uled_graph_reuse_misses")

	serveStart = time.Now()
)

func init() {
	expvar.Publish("uled_goroutines", expvar.Func(func() any {
		return runtime.NumGoroutine()
	}))
	expvar.Publish("uled_uptime_seconds", expvar.Func(func() any {
		return time.Since(serveStart).Seconds()
	}))
	// Cumulative election throughput since process start; per-interval
	// rates are the scraper's job (delta of uled_elections_total).
	expvar.Publish("uled_elections_per_sec", expvar.Func(func() any {
		up := time.Since(serveStart).Seconds()
		if up <= 0 {
			return 0.0
		}
		return float64(statElections.Value()) / up
	}))
}

// Config tunes a Manager. Zero values select the documented defaults.
type Config struct {
	// Slots is the number of concurrent worker slots — the service's
	// admission bound (default GOMAXPROCS).
	Slots int
	// MaxJobs bounds the retained async jobs, finished included (default
	// 256). Admission fails with ErrBusy when the table is full of
	// unfinished jobs.
	MaxJobs int
	// JobTTL is the retention of finished jobs (default 10m): an older
	// one is pruned the next time the job table is read or grown.
	JobTTL time.Duration
	// MaxRounds caps a request's max_rounds (default sim.DefaultMaxRounds,
	// 1 << 20); requests above it are rejected rather than silently
	// clamped, and an election that names none runs with
	// core.FrontEndMaxRounds or this cap, whichever is lower.
	MaxRounds int
	// MaxTrials caps a sweep request's expanded trial count (default
	// 1 << 20).
	MaxTrials int
	// MaxEdges caps the graph a request may name (default 1 << 22 edges),
	// and with it the nodes, at a quarter of it (1 << 20): a spec is a few
	// bytes whatever it expands to, so its size is worked out
	// (graph.SpecSize) and held to the cap before anything is built.
	MaxEdges int
}

func (c Config) withDefaults() Config {
	orDefault(&c.Slots, runtime.GOMAXPROCS(0))
	orDefault(&c.MaxJobs, 256)
	orDefault(&c.JobTTL, 10*time.Minute)
	orDefault(&c.MaxRounds, sim.DefaultMaxRounds)
	orDefault(&c.MaxTrials, 1<<20)
	orDefault(&c.MaxEdges, 1<<22)
	return c
}

// orDefault sets *v to d unless it is positive.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// RequestError marks a client-side error (invalid spec, unknown
// algorithm, malformed model string); the HTTP layer maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ErrShutdown is returned for work submitted after Shutdown began.
var ErrShutdown = errors.New("serve: shutting down")

// ErrBusy is returned when the job table is full of unfinished jobs.
var ErrBusy = errors.New("serve: job table full")

// ErrNotFound is returned for an unknown job ID.
var ErrNotFound = errors.New("serve: no such job")

// slotPrepCap bounds the cells a slot keeps, so that its memory follows
// its working set (docs/PERFORMANCE.md, "Serving layer", has the
// measurement the cap was read from).
const slotPrepCap = 16

// slot is one worker's private, reusable election machinery. Slots are
// owned exclusively while a request runs, so no locking.
type slot struct {
	cells []cell
	uses  int64 // requests served: the clock of cell.used
	res   sim.Result
}

// cell is a slot's Prepared for one key, stamped with its last use.
type cell struct {
	cellKey
	prep *core.Prepared
	used int64
}

type cellKey struct {
	spec string
	seed int64
	algo string
}

// graphWithin refuses a graph spec that is malformed or expands past
// maxEdges edges (or a quarter as many nodes), without building it, and
// returns its size.
func graphWithin(spec string, maxEdges int) (nodes, edges int64, err error) {
	nodes, edges, err = graph.SpecSize(spec)
	if err != nil {
		return 0, 0, badRequest("graph: %v", err)
	}
	if edges > int64(maxEdges) || nodes > int64(maxEdges)/4 {
		return 0, 0, badRequest("graph %s has %d nodes and %d edges, above the server cap of %d nodes and %d edges",
			spec, nodes, edges, maxEdges/4, maxEdges)
	}
	return nodes, edges, nil
}

// prepared returns the slot's core.Prepared for key, refusing the graph
// when its exact diameter would be above the cap
// (core.ExactDiameterWithin, estimate off); a hit reuses the engine
// arenas and Runner buffers of every earlier request on the cell. A miss
// takes the graph, with its memoized diameter, from a cell on the same
// (spec, seed) or builds it once its size is known to be within maxEdges,
// then binds a new cell while the slot has room and rebinds the least
// recently used one once it is full.
func (s *slot) prepared(key cellKey, maxEdges int, estimate bool) (*core.Prepared, error) {
	s.uses++
	var g *graph.Graph
	hit, lru := -1, 0
	for i, c := range s.cells {
		if c.spec == key.spec && c.seed == key.seed {
			g = c.prep.Graph()
			if c.algo == key.algo {
				hit = i
			}
		}
		if c.used < s.cells[lru].used {
			lru = i
		}
	}
	var (
		nodes, edges int64
		err          error
	)
	if g != nil {
		nodes, edges = int64(g.N()), int64(g.M())
	} else if nodes, edges, err = graphWithin(key.spec, maxEdges); err != nil {
		return nil, err
	}
	if err := core.ExactDiameterWithin(key.spec, nodes, edges, key.algo, estimate); err != nil {
		return nil, badRequest("%v", err)
	}
	if g != nil {
		statGraphHits.Add(1)
		if hit >= 0 {
			s.cells[hit].used = s.uses
			statPrepHits.Add(1)
			return s.cells[hit].prep, nil
		}
	} else if g, err = graph.FromSpec(key.spec, key.seed); err != nil {
		return nil, badRequest("graph: %v", err)
	} else {
		statGraphMisses.Add(1)
	}
	if len(s.cells) < slotPrepCap {
		s.cells, lru = append(s.cells, cell{prep: new(core.Prepared)}), len(s.cells)
	}
	c := &s.cells[lru]
	if err := c.prep.Rebind(g, key.algo); err != nil {
		// An unknown algorithm. A cell appended for it stays unbound: no
		// request hits its empty key, and it is the first a full slot
		// rebinds.
		return nil, badRequest("%v", err)
	}
	if c.algo != "" {
		statPrepRebinds.Add(1)
	}
	statPrepMisses.Add(1)
	c.cellKey, c.used = key, s.uses
	return c.prep, nil
}

// Manager owns the slot pool and the job table.
type Manager struct {
	cfg   Config
	slots chan *slot

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool

	wg sync.WaitGroup // in-flight async jobs
}

// NewManager builds a Manager; pair with Shutdown.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		slots: make(chan *slot, cfg.Slots),
		jobs:  make(map[string]*Job),
	}
	for i := 0; i < cfg.Slots; i++ {
		m.slots <- new(slot)
	}
	return m
}

// Config returns the resolved configuration.
func (m *Manager) Config() Config { return m.cfg }

// acquire takes a worker slot, waiting until one frees up or ctx ends.
func (m *Manager) acquire(ctx context.Context) (*slot, error) {
	select {
	case s := <-m.slots:
		return s, nil
	default:
	}
	select {
	case s := <-m.slots:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (m *Manager) release(s *slot) { m.slots <- s }

// gc removes finished jobs older than the TTL, plus — oldest first — any
// finished jobs beyond MaxJobs. The caller holds m.mu: every method that
// reads or grows the table prunes it first, so no expired job is ever
// returned and no goroutine has to keep time.
func (m *Manager) gc(now time.Time) {
	var finished []*Job
	for id, j := range m.jobs {
		j.mu.Lock()
		done := j.state.terminal()
		age := now.Sub(j.Finished)
		j.mu.Unlock()
		if !done {
			continue
		}
		if age > m.cfg.JobTTL {
			delete(m.jobs, id)
			continue
		}
		finished = append(finished, j)
	}
	if excess := len(m.jobs) - m.cfg.MaxJobs; excess > 0 {
		sort.Slice(finished, func(i, k int) bool {
			return finished[i].Finished.Before(finished[k].Finished)
		})
		for i := 0; i < excess && i < len(finished); i++ {
			delete(m.jobs, finished[i].ID)
		}
	}
}

// Shutdown stops admission and waits for in-flight async jobs to drain.
// If ctx expires first, every unfinished job is cancelled and Shutdown
// waits for the cancellations to take effect before returning ctx's
// error. Sync (HTTP-request-scoped) work is the HTTP server's to drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-drained
	}
	return err
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one async request. Mutable fields are guarded by mu; the HTTP
// layer reads them through Snapshot.
type Job struct {
	ID      string
	Kind    string // "election" | "sweep"
	Created time.Time
	seq     int // the Manager's admission count when it was made

	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	err      string
	result   []byte // JSON: ElectionResult or SweepSummary
	Started  time.Time
	Finished time.Time
}

// JobStatus is the wire form of a job's state (GET /v1/jobs lists these;
// JobDocument adds the result).
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	// ElapsedMS is the run time of a finished job in milliseconds.
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

// JobDocument is the one wire document of a job: the 202 body of an async
// submit and the GET /v1/jobs/{id} body. Result is the ElectionResult or
// SweepSummary once the job is done, and absent before.
type JobDocument struct {
	JobStatus
	Result json.RawMessage `json:"result,omitempty"`
}

// Document returns the job's status and result, read together under one
// lock: a job that is done always comes with its result, however soon
// after the submit it finished.
func (j *Job) Document() JobDocument {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobDocument{JobStatus: j.status(), Result: j.result}
}

// Snapshot returns the job's current wire status.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status()
}

// status is Snapshot's body; j.mu must be held.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID: j.ID, Kind: j.Kind, State: j.state, Error: j.err,
		Created: j.Created.UTC().Format(time.RFC3339Nano),
	}
	if !j.Started.IsZero() {
		st.Started = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		st.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
		st.ElapsedMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	return st
}

func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobPending {
		return false
	}
	j.state = JobRunning
	j.Started = time.Now()
	return true
}

func (j *Job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.Finished = time.Now()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
	case errors.Is(err, context.Canceled):
		j.state = JobCancelled
		j.err = "cancelled"
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
}

// newJob registers a pending job, enforcing admission limits. cancel is
// installed under the lock so Shutdown never observes a job without one.
func (m *Manager) newJob(kind string, cancel context.CancelFunc) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShutdown
	}
	m.gc(time.Now())
	unfinished := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.terminal() {
			unfinished++
		}
		j.mu.Unlock()
	}
	if unfinished >= m.cfg.MaxJobs {
		return nil, ErrBusy
	}
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", m.seq),
		Kind:    kind,
		Created: time.Now(),
		seq:     m.seq,
		state:   JobPending,
		cancel:  cancel,
	}
	m.jobs[j.ID] = j
	return j, nil
}

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gc(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs returns a snapshot of every retained job, newest first.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	m.gc(time.Now())
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, k int) bool { return all[i].seq > all[k].seq })
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel cancels a pending/running job (its goroutine observes the
// context and finishes as cancelled) or deletes a finished one.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	m.gc(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	j.mu.Lock()
	terminal := j.state.terminal()
	j.mu.Unlock()
	if terminal {
		delete(m.jobs, id)
		m.mu.Unlock()
		return j.Snapshot(), nil
	}
	m.mu.Unlock()
	j.cancel() // the job goroutine transitions the state
	return j.Snapshot(), nil
}

// checkOpen rejects new work after Shutdown began.
func (m *Manager) checkOpen() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrShutdown
	}
	return nil
}

// ---- Elections ----

// ElectionRequest is the wire form of POST /v1/elections.
type ElectionRequest struct {
	// Graph is a family spec in the shared grammar ("ring:64",
	// "random:128:640", ...); GraphSeed seeds randomized families
	// (default 1 — deliberately NOT the run seed, so sweeping the run
	// seed under load reuses one cached instance per spec).
	Graph     string `json:"graph"`
	GraphSeed int64  `json:"graph_seed,omitempty"`
	// Algo is an algorithm registry name (election.Algorithms).
	Algo string `json:"algo"`
	// Seed drives IDs and coins; equal seeds give byte-identical results.
	Seed int64 `json:"seed,omitempty"`
	// Model is the execution-model spec string ("", "local",
	// "async+random:4+crash:0.2", ... — sim.ParseModel grammar).
	Model string `json:"model,omitempty"`
	// Wake is a wake-schedule spec ("", "sync", "random:R", "stagger:K",
	// "adversarial" — the harness grammar, derived from Seed).
	Wake string `json:"wake,omitempty"`
	// SmallIDs assigns permutation IDs 1..n exactly as the harness does
	// (core.RunOpts); required for "dfs".
	SmallIDs bool `json:"small_ids,omitempty"`
	// Anonymous removes identifiers (randomized algorithms only); it
	// excludes small_ids.
	Anonymous bool `json:"anonymous,omitempty"`
	// MaxRounds bounds the run (default core.FrontEndMaxRounds, 1 << 18,
	// capped by Config.MaxRounds).
	MaxRounds int `json:"max_rounds,omitempty"`
	// DiameterEstimate grants D-dependent algorithms the double-sweep
	// bound instead of the exact diameter.
	DiameterEstimate bool `json:"diameter_estimate,omitempty"`
}

// ElectionResult is the wire form of an election outcome. The measurements
// are the batch harness's own reduction (core.Prepared.Reduce), so a served
// election and a batch trial with the same seed agree on every field.
type ElectionResult struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	Seed  int64  `json:"seed"`
	Model string `json:"model,omitempty"`
	Wake  string `json:"wake,omitempty"`

	N          int   `json:"n"`
	M          int   `json:"m"`
	D          int   `json:"d,omitempty"`
	Rounds     int   `json:"rounds"`
	LastActive int   `json:"last_active"`
	Messages   int64 `json:"messages"`
	Bits       int64 `json:"bits"`
	Leaders    int   `json:"leaders"`
	// Leader is the elected node's index when the election is unique.
	Leader      int  `json:"leader,omitempty"`
	Unique      bool `json:"unique"`
	Halted      bool `json:"halted"`
	HitRoundCap bool `json:"hit_round_cap,omitempty"`

	Crashes    int   `json:"crashes,omitempty"`
	Recoveries int   `json:"recoveries,omitempty"`
	Dropped    int64 `json:"dropped,omitempty"`
	LiveUnique bool  `json:"live_unique,omitempty"`
}

// runElection validates and executes one election on a slot.
func (m *Manager) runElection(req ElectionRequest, s *slot) (*ElectionResult, error) {
	if req.Graph == "" {
		return nil, badRequest("missing field: graph")
	}
	if req.Algo == "" {
		return nil, badRequest("missing field: algo")
	}
	if req.MaxRounds > m.cfg.MaxRounds {
		return nil, badRequest("max_rounds %d above the server cap %d", req.MaxRounds, m.cfg.MaxRounds)
	}
	model, err := sim.ParseModel(req.Model)
	if err != nil {
		return nil, badRequest("model: %v", err)
	}
	gseed := req.GraphSeed
	if gseed == 0 {
		gseed = 1
	}
	prep, err := s.prepared(cellKey{req.Graph, gseed, req.Algo}, m.cfg.MaxEdges, req.DiameterEstimate)
	if err != nil {
		return nil, err
	}
	g := prep.Graph()
	ro := core.RunOpts{
		Seed:             req.Seed,
		SmallIDs:         req.SmallIDs,
		Anonymous:        req.Anonymous,
		DiameterEstimate: req.DiameterEstimate,
		MaxRounds:        req.MaxRounds,
		Model:            model,
	}
	if ro.MaxRounds <= 0 {
		ro.MaxRounds = min(core.FrontEndMaxRounds, m.cfg.MaxRounds)
	}
	if ro.Wake, err = harness.WakeSchedule(req.Wake, g.N(), req.Seed); err != nil {
		return nil, badRequest("wake: %v", err)
	}
	if err := prep.RunInto(ro, &s.res); err != nil {
		// Anonymous-vs-IDs and engine misconfigurations are request
		// errors; a model violation or a broken guarantee during the run
		// is server-side.
		if errors.Is(err, sim.ErrConfig) {
			return nil, badRequest("%v", err)
		}
		return nil, err
	}
	o := prep.Reduce(ro, &s.res)
	out := &ElectionResult{
		Graph: req.Graph, Algo: req.Algo, Seed: req.Seed,
		Model: req.Model, Wake: req.Wake,
		N: g.N(), M: g.M(), D: o.D,
		Rounds: o.Rounds, LastActive: o.LastActive,
		Messages: o.Messages, Bits: o.Bits,
		Leaders: o.Leaders, Unique: o.Unique,
		Halted: o.Halted, HitRoundCap: o.HitRoundCap,
		Crashes: o.Crashes, Recoveries: o.Recoveries,
		Dropped: o.Dropped, LiveUnique: o.LiveUnique,
	}
	if o.Unique {
		out.Leader = s.res.Leaders[0]
	}
	statElections.Add(1)
	return out, nil
}

// RunElection executes one election request synchronously on a pooled
// slot. It is the sync HTTP path and the tests' entry point.
func (m *Manager) RunElection(ctx context.Context, req ElectionRequest) (*ElectionResult, error) {
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	s, err := m.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer m.release(s)
	statJobsInFlight.Add(1)
	defer statJobsInFlight.Add(-1)
	return m.runElection(req, s)
}

// ---- Sweeps ----

// SweepSummary is the stored result of an async sweep job: the report
// without the trial stream.
type SweepSummary struct {
	Spec        harness.Spec         `json:"spec"`
	TotalTrials int                  `json:"total_trials"`
	Errors      int                  `json:"errors"`
	Groups      []harness.GroupStats `json:"groups"`
}

// validateSweep pre-flights a sweep request — a ule-sweep/v3 spec
// (docs/SWEEP_SCHEMA.md), the same JSON `ule-experiments -sweep` reads —
// and compiles it, once: the trial count and the size of every graph on
// the graph axis are checked against their caps by arithmetic before
// anything is built from the spec, then the axes are parsed (an exact
// diameter above core.ExactDiameterCap is refused there) and the graphs
// instantiated. The returned Plan is what the request runs on. A spec
// that names no max_rounds runs at core.FrontEndMaxRounds or the server
// cap, whichever is lower, like an election, and echoes the cap where it
// is the lower.
func (m *Manager) validateSweep(spec *harness.Spec) (*harness.Plan, error) {
	if spec.MaxRounds > m.cfg.MaxRounds {
		return nil, badRequest("max_rounds %d above the server cap %d", spec.MaxRounds, m.cfg.MaxRounds)
	}
	if spec.MaxRounds <= 0 && m.cfg.MaxRounds < core.FrontEndMaxRounds {
		spec.MaxRounds = m.cfg.MaxRounds
	}
	if total := spec.NumTrials(); total > m.cfg.MaxTrials {
		return nil, badRequest("spec expands to %d trials, above the server cap %d", total, m.cfg.MaxTrials)
	}
	for _, g := range spec.Graphs {
		if _, _, err := graphWithin(g, m.cfg.MaxEdges); err != nil {
			return nil, err
		}
	}
	p, err := spec.Compile()
	if err == nil {
		_, err = p.Graphs()
	}
	if err != nil {
		return nil, badRequest("spec: %v", err)
	}
	return p, nil
}

// cancelEmitter aborts a sweep at the next trial boundary once ctx ends;
// harness.Run returns the context error. It must precede the output
// emitters in the chain so a cancelled sweep stops emitting immediately.
type cancelEmitter struct{ ctx context.Context }

func (e cancelEmitter) Begin(harness.Spec, int) error   { return e.ctx.Err() }
func (e cancelEmitter) Trial(harness.TrialResult) error { return e.ctx.Err() }
func (e cancelEmitter) End(*harness.Report) error       { return e.ctx.Err() }

// countEmitter feeds the service trial counter.
type countEmitter struct{}

func (countEmitter) Begin(harness.Spec, int) error { return nil }
func (countEmitter) Trial(harness.TrialResult) error {
	statTrials.Add(1)
	statElections.Add(1) // every trial is one served election
	return nil
}
func (countEmitter) End(*harness.Report) error { return nil }

// sweep is the one way the service executes a validated sweep: one
// harness worker, the calling goroutine — service concurrency comes from
// the slot pool, and the engine may still split one large trial across the
// cores — cancellation through ctx at trial granularity, the service
// counters fed, then the caller's emitters.
func (m *Manager) sweep(ctx context.Context, p *harness.Plan, emitters ...harness.Emitter) (*harness.Report, error) {
	rep, err := p.Run(harness.RunConfig{
		Workers:  1,
		Emitters: append([]harness.Emitter{cancelEmitter{ctx}, countEmitter{}}, emitters...),
	})
	if err != nil {
		return nil, err
	}
	statSweeps.Add(1)
	return rep, nil
}

// runSweep executes a validated sweep synchronously on a slot, streaming
// through the given emitters (the NDJSON emitter over the HTTP response).
func (m *Manager) runSweep(ctx context.Context, p *harness.Plan, emitters ...harness.Emitter) (*harness.Report, error) {
	s, err := m.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer m.release(s)
	statJobsInFlight.Add(1)
	defer statJobsInFlight.Add(-1)
	return m.sweep(ctx, p, emitters...)
}

// ---- Async jobs ----

// submit registers an async job of the given kind and starts its
// goroutine: wait for a slot (a job cancelled while queueing never runs),
// run on it under the job's cancel context, record the outcome.
func (m *Manager) submit(kind string, run func(ctx context.Context, s *slot) ([]byte, error)) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j, err := m.newJob(kind, cancel)
	if err != nil {
		cancel()
		return nil, err
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		statJobsInFlight.Add(1)
		defer statJobsInFlight.Add(-1)
		s, err := m.acquire(ctx)
		if err != nil {
			j.finish(nil, context.Canceled)
			return
		}
		defer m.release(s)
		if !j.setRunning() {
			return
		}
		result, err := run(ctx, s)
		if err == nil && ctx.Err() != nil {
			j.finish(nil, context.Canceled)
			return
		}
		j.finish(result, err)
	}()
	return j, nil
}

// SubmitElection registers and starts an async election job.
func (m *Manager) SubmitElection(req ElectionRequest) (*Job, error) {
	return m.submit("election", func(_ context.Context, s *slot) ([]byte, error) {
		res, err := m.runElection(req, s)
		if err != nil {
			return nil, err
		}
		return marshalJSON(res), nil
	})
}

// SubmitSweep validates, registers and starts an async sweep job. The
// job result is the SweepSummary; trial records are not retained.
func (m *Manager) SubmitSweep(spec harness.Spec) (*Job, error) {
	p, err := m.validateSweep(&spec)
	if err != nil {
		return nil, err
	}
	return m.submit("sweep", func(ctx context.Context, _ *slot) ([]byte, error) {
		rep, err := m.sweep(ctx, p)
		if err != nil {
			return nil, err
		}
		return marshalJSON(SweepSummary{
			Spec: rep.Spec, TotalTrials: rep.Total, Errors: rep.Errors, Groups: rep.Groups,
		}), nil
	})
}
