package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ule/internal/harness"
	"ule/internal/stats"
)

// Config drives one fleet run. Zero values pick conservative defaults;
// only Spec and Out are required.
type Config struct {
	// Spec is the sweep to run. It is written verbatim to Dir/spec.json
	// and handed to every worker, so both sides compile the identical
	// spec and every shard carries the same spec hash.
	Spec harness.Spec

	// Workers is the number of concurrent worker processes (default 2).
	Workers int

	// UnitTrials is the work-unit size in trials. Default: the sweep in
	// leasesPerWorker (4) equal leases per worker, at least 1 trial each.
	UnitTrials int

	// CheckpointEvery is the shard checkpoint cadence handed to workers
	// and used for the merged output (0 = the harness default). Byte
	// identity with a single-process run requires the same cadence on
	// both sides.
	CheckpointEvery int

	// HeartbeatTimeout revokes a worker's lease when its stdout has been
	// silent this long (default 10s; a value under 1s is an error).
	// Workers emit an "hb" line when a lease starts and then, while trials
	// complete, one per 200 ms — so no single trial may take longer than
	// this.
	HeartbeatTimeout time.Duration

	// MaxAttempts quarantines a unit after this many failed attempts
	// (default 4). A quarantined unit's completed prefix still merges;
	// the rest is reported in Result.Incomplete.
	MaxAttempts int

	// Dir holds the spec file and shard files; it is created if missing
	// (default: a fresh temp directory, left on disk for post-mortems).
	Dir string

	// Out is the merged ule-sweepbin output path (required).
	Out string

	// JSONOut, when set, additionally exports the merged document as
	// canonical sweep JSON.
	JSONOut string

	// WorkerArgv is the worker command prefix; the coordinator appends
	// -spec and -checkpoint-every and feeds the leases on stdin. Default:
	// this executable with a -worker flag (the cmd/ule-fleet layout).
	// Tests point it at the test binary re-exec hook.
	WorkerArgv []string

	// Chaos, when non-nil, injects seed-deterministic faults (first
	// attempts only) — the chaos gate proving crash-safety.
	Chaos *ChaosPlan

	// Log receives the run's lifecycle as NDJSON, one event per line
	// (spawn, lease, hb gaps, done, kill, exit, revoke, resume, retry,
	// quarantine, merge, and worker stderr as "stderr" events; see
	// docs/DISTRIBUTED.md). Default: nothing is logged.
	Log io.Writer
}

// Result is the machine-readable outcome of a fleet run. On partial
// failure (quarantined units) Run returns it alongside a non-nil error
// with Incomplete listing exactly the trial ranges missing from Out.
type Result struct {
	Report        *harness.Report      `json:"-"`
	MergedPath    string               `json:"merged_path,omitempty"`
	Total         int                  `json:"total_trials"`
	Units         int                  `json:"units"`
	Workers       int                  `json:"workers"`
	Retries       int                  `json:"retries"`
	Reassignments int                  `json:"reassignments"`
	Kills         int                  `json:"kills"`
	Stalls        int                  `json:"stalls"`
	Corruptions   int                  `json:"corruptions"`
	Quarantined   []int                `json:"quarantined,omitempty"`
	Incomplete    []harness.TrialRange `json:"incomplete,omitempty"`
	ElapsedMS     int64                `json:"elapsed_ms"`
	// LeaseMSMedian and LeaseMSMax are the wall time of a lease (sent →
	// done, or → the worker's death). IdleTailMS is how long the first
	// worker to run out of leases sat idle while the last one finished:
	// the price of the unit size.
	LeaseMSMedian float64 `json:"lease_ms_median"`
	LeaseMSMax    float64 `json:"lease_ms_max"`
	IdleTailMS    float64 `json:"idle_tail_ms"`
}

// ErrIncomplete is wrapped by Run when quarantined units left holes in
// the sweep; Result.Incomplete carries the exact missing ranges.
var ErrIncomplete = errors.New("fleet: sweep incomplete")

// unit is one leased trial range. files accumulates every shard that
// holds valid trials for the range (reassignment after a stall keeps the
// stalled worker's partial shard, creating genuine overlap for the
// merge's duplicate detection).
type unit struct {
	id      int
	r       harness.TrialRange
	attempt int
	file    string
	files   []string
}

type coordinator struct {
	cfg      Config
	plan     *harness.Plan
	specPath string
	actions  map[int]chaosAction
	units    []*unit
	start    time.Time

	ready     chan *unit
	remaining atomic.Int64

	lastLease []time.Time // per slot: when its last lease ended (zero: it ran none)

	mu      sync.Mutex // res, leaseMS; serializes Log writes
	res     Result
	leaseMS []float64
}

// Run executes the sweep across cfg.Workers worker processes — each one
// alive for the whole run, serving one lease after another over its
// stdin/stdout — and merges their shards into a single ule-sweepbin
// document at cfg.Out that is byte-identical to a single-process run.
// Worker crashes, hangs and shard corruption are retried with capped
// backoff (a dead worker's slot gets a new process); units that keep
// failing are quarantined and reported via Result.Incomplete together
// with an ErrIncomplete-wrapped error. Every worker process has been
// waited for when Run returns.
func Run(cfg Config) (*Result, error) {
	c, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	for _, u := range c.units {
		c.ready <- u
	}
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c.serveSlot(slot)
		}(i)
	}
	wg.Wait()

	leases := stats.Summarize(c.leaseMS)
	c.res.LeaseMSMedian, c.res.LeaseMSMax = leases.Median, leases.Max
	var first, last time.Time
	for _, t := range c.lastLease {
		if !t.IsZero() && (first.IsZero() || t.Before(first)) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	c.res.IdleTailMS = float64(last.Sub(first)) / 1e6
	err = c.merge()
	c.res.ElapsedMS = time.Since(c.start).Milliseconds()
	return &c.res, err
}

// leasesPerWorker sizes the default work unit. A lease costs about 2 ms
// of CPU (shard create, two fsyncs, validation, its share of the merge)
// and shorter leases leave a shorter idle tail; on the one host measured,
// 8, 16 and 32 leases per job finish in the same wall time (the
// leases-per-job table in docs/PERFORMANCE.md § "Fleet overhead"), so
// nothing there argues for more than four a worker.
const leasesPerWorker = 4

func newCoordinator(cfg Config) (*coordinator, error) {
	start := time.Now()
	if cfg.Out == "" {
		return nil, fmt.Errorf("fleet: Config.Out is required")
	}
	plan, err := cfg.Spec.Compile()
	if err == nil {
		_, err = plan.Graphs()
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: spec: %w", err)
	}
	total := plan.Total()
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.UnitTrials <= 0 {
		leases := leasesPerWorker * cfg.Workers
		cfg.UnitTrials = (total + leases - 1) / leases
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.HeartbeatTimeout < minHeartbeatTimeout {
		return nil, fmt.Errorf("fleet: HeartbeatTimeout %v is below the minimum %v (workers beat every %v)",
			cfg.HeartbeatTimeout, minHeartbeatTimeout, heartbeatPace)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "ule-fleet-*")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if len(cfg.WorkerArgv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("fleet: no WorkerArgv and no executable path: %w", err)
		}
		cfg.WorkerArgv = []string{exe, "-worker"}
	}

	specJSON, err := json.Marshal(cfg.Spec)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(cfg.Dir, "spec.json")
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		return nil, err
	}

	ranges := partition(total, cfg.UnitTrials)
	c := &coordinator{
		cfg:      cfg,
		plan:     plan,
		specPath: specPath,
		actions:  cfg.Chaos.actions(ranges),
		start:    start,
		ready:    make(chan *unit, len(ranges)),

		lastLease: make([]time.Time, cfg.Workers),
	}
	for i, r := range ranges {
		c.units = append(c.units, &unit{
			id:   i,
			r:    r,
			file: filepath.Join(cfg.Dir, fmt.Sprintf("unit-%03d.ulss", i)),
		})
	}
	c.remaining.Store(int64(len(c.units)))
	c.res.Total = total
	c.res.Units = len(c.units)
	c.res.Workers = cfg.Workers
	return c, nil
}

// partition splits total trials into contiguous units of at most size
// trials each.
func partition(total, size int) []harness.TrialRange {
	var out []harness.TrialRange
	for at := 0; at < total; at += size {
		n := size
		if at+n > total {
			n = total - at
		}
		out = append(out, harness.TrialRange{Start: at, Count: n})
	}
	return out
}

// serveSlot is one worker slot: it takes units off the queue and leases
// each to the slot's worker process, starting one when the slot has none
// — at the first unit, and after the previous process died or was
// killed. The process is retired (stdin closed, waited for) when the
// queue closes.
func (c *coordinator) serveSlot(slot int) {
	var w *workerProc
	for u := range c.ready {
		act := chaosAction{}
		if a, ok := c.actions[u.id]; ok && u.attempt == 0 {
			act = a
		}
		if w == nil {
			w = c.spawn(slot)
		}
		stalled := false
		if w != nil {
			t0 := time.Now()
			var alive bool
			if alive, stalled = c.lease(w, u, act); !alive {
				c.reap(w)
				w = nil
			}
			c.lastLease[slot] = time.Now()
			c.mu.Lock()
			c.leaseMS = append(c.leaseMS, float64(c.lastLease[slot].Sub(t0))/1e6)
			c.mu.Unlock()
		}
		c.resolve(u, act, stalled)
	}
	if w != nil {
		c.retire(w)
	}
}

// resolve routes the outcome of one attempt: a complete valid shard →
// terminal, failure → backoff-and-retry, too many failures → quarantine.
func (c *coordinator) resolve(u *unit, act chaosAction, stalled bool) {
	if c.validShard(u.file, u.r, true) == nil {
		u.files = append(u.files, u.file)
		c.finish(u)
		return
	}

	u.attempt++
	if stalled {
		c.mu.Lock()
		c.res.Reassignments++
		c.mu.Unlock()
	}

	if u.attempt >= c.cfg.MaxAttempts {
		c.event("quarantine", nil, u)
		c.mu.Lock()
		c.res.Quarantined = append(c.res.Quarantined, u.id)
		c.mu.Unlock()
		c.finish(u)
		return
	}

	if stalled {
		// The stalled worker may have made durable progress; keep its
		// shard for the merge (the fresh re-run will overlap it — the
		// merge dedups by absolute trial index) and reassign the lease to
		// a new file so the retry never contends with a zombie writer.
		if c.validShard(u.file, u.r, false) == nil {
			u.files = append(u.files, u.file)
		}
		u.file = filepath.Join(c.cfg.Dir, fmt.Sprintf("unit-%03d.r%d.ulss", u.id, u.attempt))
		c.event("revoke", nil, u, "shard", filepath.Base(u.file))
	}

	c.mu.Lock()
	c.res.Retries++
	c.mu.Unlock()
	delay := retryDelay(u.attempt - 1)
	c.event("retry", nil, u, "chaos", act.kind.String(), "ms", float64(delay)/1e6)
	go func() {
		time.Sleep(delay)
		c.ready <- u
	}()
}

// retryDelay is the pause before retry number attempt (0-based) of a
// failed unit: 10ms, doubling per attempt, capped at 300ms.
func retryDelay(attempt int) time.Duration {
	const base, limit = 10 * time.Millisecond, 300 * time.Millisecond
	d := base
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// finish marks a unit terminal (done or quarantined) and closes the
// queue once every unit is terminal. Safe against pending retry sends: a
// unit sleeping toward a retry is non-terminal, so remaining stays
// positive until that send has been received and resolved.
func (c *coordinator) finish(u *unit) {
	if c.remaining.Add(-1) == 0 {
		close(c.ready)
	}
}

// workerProc is one live worker process and the parsed lines of its
// stdout; lines is closed at stdout EOF, which is how its death shows.
type workerProc struct {
	slot  int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan workerLine
}

// workerLine is one stdout line of a worker: a heartbeat "hb <a> <b>"
// (done, count), or the end of a lease "done <a> <b>" (start, count) with
// the worker's error text if it failed. Anything else only proves life.
type workerLine struct {
	kind string
	a, b int
	err  string
}

// parseWorkerLine reads one stdout line of a worker; a line of neither
// form is the zero workerLine.
func parseWorkerLine(s string) workerLine {
	var ln workerLine
	if n, _ := fmt.Sscanf(s, "%s %d %d err %q", &ln.kind, &ln.a, &ln.b, &ln.err); n < 3 {
		return workerLine{}
	}
	return ln
}

// spawn starts the slot's worker process in its streaming form; nil means
// the exec failed (logged), which the caller treats as a failed attempt.
func (c *coordinator) spawn(slot int) *workerProc {
	argv := append(append([]string(nil), c.cfg.WorkerArgv...),
		"-spec", c.specPath,
		"-checkpoint-every", strconv.Itoa(c.cfg.CheckpointEvery),
	)
	w := &workerProc{slot: slot, cmd: exec.Command(argv[0], argv[1:]...), lines: make(chan workerLine)}
	if c.cfg.Log != nil {
		w.cmd.Stderr = stderrLog{c, w}
	}
	stdin, err := w.cmd.StdinPipe()
	var stdout io.ReadCloser
	if err == nil {
		stdout, err = w.cmd.StdoutPipe()
	}
	if err == nil {
		err = w.cmd.Start()
	}
	if err != nil {
		c.event("spawn", nil, nil, "slot", slot, "err", err.Error())
		return nil
	}
	w.stdin = stdin
	go func() {
		defer close(w.lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			w.lines <- parseWorkerLine(sc.Text())
		}
	}()
	c.event("spawn", w, nil)
	return w
}

// stderrLog turns what a worker writes to stderr into log events.
type stderrLog struct {
	c *coordinator
	w *workerProc
}

func (l stderrLog) Write(p []byte) (int, error) {
	l.c.event("stderr", l.w, nil, "text", strings.TrimSpace(string(p)))
	return len(p), nil
}

// lease hands the unit to the worker and follows its stdout until the
// lease ends. Every line refreshes the deadline; a worker silent past
// HeartbeatTimeout is declared hung and SIGKILLed (stalled). alive is
// false when the process is gone — killed here, or dead on its own — and
// must be reaped. Whether the lease succeeded is for validShard to say.
func (c *coordinator) lease(w *workerProc, u *unit, act chaosAction) (alive, stalled bool) {
	c.mu.Lock()
	switch act.kind {
	case chaosKill:
		c.res.Kills++
	case chaosStall:
		c.res.Stalls++
	}
	c.mu.Unlock()

	t0 := time.Now()
	c.event("lease", w, u, "shard", filepath.Base(u.file), "chaos", act.kind.String())
	if _, err := io.WriteString(w.stdin, lease{r: u.r, shard: u.file, fault: act}.line()); err != nil {
		// The process died between leases.
		w.kill()
		return false, false
	}
	timeout := c.cfg.HeartbeatTimeout
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	last, first := t0, true
	for {
		select {
		case ln, ok := <-w.lines:
			if !ok {
				return false, false
			}
			now := time.Now()
			if gap := now.Sub(last); gap > timeout/2 {
				c.event("hb", w, u, "gap_ms", float64(gap)/1e6)
			}
			last = now
			deadline.Reset(timeout)
			if first && ln.kind == "hb" && ln.a > 0 {
				c.event("resume", w, u, "offset", ln.a)
			}
			first = false
			if ln.kind != "done" || ln.a != u.r.Start || ln.b != u.r.Count {
				continue
			}
			ms := float64(now.Sub(t0)) / 1e6
			if ln.err != "" {
				c.event("done", w, u, "ms", ms, "err", ln.err)
				return true, false
			}
			c.event("done", w, u, "ms", ms)
			// The corruption fault is injected by the coordinator after a
			// clean lease: flip the shard's last 8 bytes, tearing the end
			// record the way a dying disk would. Validation rejects it and
			// the retry resumes from the last intact checkpoint.
			if act.kind == chaosCorrupt {
				if err := corruptTail(u.file); err == nil {
					c.mu.Lock()
					c.res.Corruptions++
					c.mu.Unlock()
				}
			}
			return true, false
		case <-deadline.C:
			c.event("kill", w, u, "silent_ms", float64(time.Since(last))/1e6)
			w.kill()
			return false, true
		}
	}
}

// kill SIGKILLs the process and reads its stdout to EOF.
func (w *workerProc) kill() {
	w.cmd.Process.Kill()
	for range w.lines {
	}
}

// reap waits for a worker process whose stdout is at EOF.
func (c *coordinator) reap(w *workerProc) {
	w.stdin.Close() // a second Close, after retire's, only returns an error
	status := "ok"
	if err := w.cmd.Wait(); err != nil {
		status = err.Error()
	}
	c.event("exit", w, nil, "status", status)
}

// retire ends an idle worker: stdin EOF is its signal to exit. One that
// does not is killed at the heartbeat deadline.
func (c *coordinator) retire(w *workerProc) {
	w.stdin.Close()
	kill := time.AfterFunc(c.cfg.HeartbeatTimeout, func() { w.cmd.Process.Kill() })
	for range w.lines {
	}
	kill.Stop()
	c.reap(w)
}

// validShard checks that a shard file is intact, covers exactly the
// unit's range, matches the sweep spec hash, and (when needDone) ran to
// completion. A nil error means the file is safe to merge.
func (c *coordinator) validShard(path string, r harness.TrialRange, needDone bool) error {
	ck, err := harness.InspectShard(path)
	if err != nil {
		return err
	}
	if ck.Start != r.Start || ck.Count != r.Count {
		return fmt.Errorf("shard %s covers [%d,+%d), want [%d,+%d)", path, ck.Start, ck.Count, r.Start, r.Count)
	}
	if err := ck.CheckPlan(c.plan); err != nil {
		return err
	}
	if needDone && !ck.Done {
		return fmt.Errorf("shard %s incomplete: %d/%d", path, ck.Completed, ck.Count)
	}
	if !needDone && ck.Completed == 0 {
		return fmt.Errorf("shard %s has no durable trials", path)
	}
	return nil
}

// merge assembles every valid shard into the final document. Shards from
// quarantined units contribute their completed prefix; remaining holes
// surface as Result.Incomplete plus an ErrIncomplete error, produced
// before a single output byte is written.
func (c *coordinator) merge() error {
	var paths []string
	for _, u := range c.units {
		paths = append(paths, u.files...)
		// A quarantined unit's last shard never passed full validation,
		// but a durable prefix is still worth merging.
		if len(u.files) == 0 || u.files[len(u.files)-1] != u.file {
			if c.validShard(u.file, u.r, false) == nil {
				paths = append(paths, u.file)
			}
		}
	}

	out, err := os.Create(c.cfg.Out)
	if err != nil {
		return err
	}
	opt := harness.BinaryOptions{CheckpointEvery: c.cfg.CheckpointEvery}
	t0 := time.Now()
	rep, err := c.plan.MergeShards(paths, harness.MergeConfig{
		Emitters: []harness.Emitter{harness.NewBinaryEmitter(out, opt)},
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(c.cfg.Out)
		var ie *harness.IncompleteError
		if errors.As(err, &ie) {
			c.res.Incomplete = ie.Missing
			return fmt.Errorf("%w: %v", ErrIncomplete, err)
		}
		return err
	}
	c.event("merge", nil, nil, "shards", len(paths), "ms", float64(time.Since(t0))/1e6)
	c.res.Report = rep
	c.res.MergedPath = c.cfg.Out

	if c.cfg.JSONOut != "" {
		if err := exportJSONFile(c.cfg.Out, c.cfg.JSONOut); err != nil {
			return err
		}
	}
	return nil
}

// exportJSONFile converts a merged binary document to canonical sweep
// JSON on disk.
func exportJSONFile(binPath, jsonPath string) error {
	in, err := os.Open(binPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := harness.ExportJSON(in, out); err != nil {
		out.Close()
		os.Remove(jsonPath)
		return err
	}
	return out.Close()
}

// corruptTail flips the last 8 bytes of a file in place.
func corruptTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < 8 {
		return fmt.Errorf("file too small to corrupt")
	}
	tail := make([]byte, 8)
	if _, err := f.ReadAt(tail, st.Size()-8); err != nil {
		return err
	}
	for i := range tail {
		tail[i] ^= 0xFF
	}
	_, err = f.WriteAt(tail, st.Size()-8)
	return err
}

// event writes one lifecycle event to Config.Log as a JSON object on its
// own line: t_ms since the run started, the event name, the worker (slot
// and pid) and the unit (id, attempt, range) it concerns, then the extra
// key/value pairs.
func (c *coordinator) event(ev string, w *workerProc, u *unit, extra ...any) {
	if c.cfg.Log == nil {
		return
	}
	b := fmt.Appendf(nil, `{"t_ms":%d,"ev":%q`, time.Since(c.start).Milliseconds(), ev)
	if w != nil {
		b = fmt.Appendf(b, `,"worker":{"slot":%d,"pid":%d}`, w.slot, w.cmd.Process.Pid)
	}
	if u != nil {
		b = fmt.Appendf(b, `,"unit":%d,"attempt":%d,"start":%d,"count":%d`, u.id, u.attempt, u.r.Start, u.r.Count)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		v, _ := json.Marshal(extra[i+1]) // ints, floats and strings only
		b = fmt.Appendf(b, `,%q:%s`, extra[i], v)
	}
	b = append(b, '}', '\n')
	c.mu.Lock()
	c.cfg.Log.Write(b)
	c.mu.Unlock()
}
