package fleet

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"

	"ule/internal/harness"
)

// heartbeatPace is the least time between two heartbeat lines of a worker
// inside one lease (the lines at lease start and end are unconditional).
// A failure detector needs one beat per timeout period, not one per unit
// of work; the coordinator keeps HeartbeatTimeout at or above
// minHeartbeatTimeout so that several paces fit into any deadline.
const (
	heartbeatPace       = 200 * time.Millisecond
	minHeartbeatTimeout = 5 * heartbeatPace
)

// lease is one work unit as handed to a worker: a trial range, the shard
// file to write it into, and — first attempts under chaos only — the
// fault to inject while doing so.
type lease struct {
	r     harness.TrialRange
	shard string
	fault chaosAction
}

// line renders the lease in the stdin grammar of a streaming worker:
//
//	<start> <count> <"shard"> [kill|stall <after>]
//
// The shard path is a Go-quoted string, so any path survives the trip.
func (l lease) line() string {
	s := fmt.Sprintf("%d %d %q", l.r.Start, l.r.Count, l.shard)
	if l.fault.kind == chaosKill || l.fault.kind == chaosStall {
		s += fmt.Sprintf(" %s %d", l.fault.kind, l.fault.after)
	}
	return s + "\n"
}

// parseLease reads one lease line; a line without a fault inherits def
// (the worker's -kill-after/-stall-after flags).
func parseLease(line string, def chaosAction) (lease, error) {
	l := lease{fault: def}
	var kind string
	var after int
	n, _ := fmt.Sscanf(line, "%d %d %q %s %d", &l.r.Start, &l.r.Count, &l.shard, &kind, &after)
	switch {
	case n == 3:
		return l, nil
	case n == 5 && kind == chaosKill.String():
		l.fault = chaosAction{kind: chaosKill, after: after}
		return l, nil
	case n == 5 && kind == chaosStall.String():
		l.fault = chaosAction{kind: chaosStall, after: after}
		return l, nil
	}
	return l, fmt.Errorf("malformed lease %q", line)
}

// RunWorker is the worker entry point: one process that compiles the
// sweep spec once and then serves leases — trial ranges run into shard
// files — until its lease source is exhausted. cmd/ule-fleet dispatches
// here under -worker, and the fleet tests re-exec the test binary into
// it. The returned value is the process exit code: 0, or 1 when a lease
// failed, 2 on a malformed flag or lease line.
//
// Protocol (see docs/DISTRIBUTED.md):
//   - flags: -spec FILE -checkpoint-every N [-stall-for DUR], and the
//     fields of one lease: -start N -count N -shard FILE [-kill-after K]
//     [-stall-after K]. The leases run on the main goroutine, one trial
//     at a time: the fleet's processes, not one process's goroutines,
//     fill the cores.
//   - With -shard the worker serves exactly that lease and exits (the
//     one-shot form). Without it, leases arrive on stdin, one per line
//     (lease.line); the fault flags are then the default for every lease
//     that names none. Stdin EOF ends the process.
//   - stdout, per lease: "hb <done> <count>" at lease start (done is the
//     resumed prefix), then at most one per heartbeatPace while trials
//     complete, then "done <start> <count>" — followed by `err "<msg>"`
//     when the lease failed. Any line is a heartbeat to the coordinator;
//     silence past its deadline is a hang.
//   - An existing shard file of the same range is resumed from its last
//     fsynced checkpoint (harness.ResumeShard); anything else is
//     recreated from scratch. Either way the finished shard is
//     byte-identical.
//   - A kill fault raises SIGKILL on this process after K lease-local
//     trials (0 = before the shard is touched); a stall fault sleeps
//     -stall-for at that point instead. Both model the chaos modes; the
//     coordinator schedules them on first attempts only.
func RunWorker(args []string) int {
	fs := flag.NewFlagSet("ule-fleet-worker", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "sweep spec JSON file")
		ckEvery    = fs.Int("checkpoint-every", 0, "checkpoint cadence (trials)")
		stallFor   = fs.Duration("stall-for", 10*time.Minute, "hang duration of a stall fault")
		start      = fs.Int("start", 0, "one-shot lease: first trial index")
		count      = fs.Int("count", 0, "one-shot lease: trial count")
		shardPath  = fs.String("shard", "", "one-shot lease: shard output file (absent = leases on stdin)")
		killAfter  = fs.Int("kill-after", -1, "SIGKILL self after this many lease-local trials (-1 = never)")
		stallAfter = fs.Int("stall-after", -1, "hang after this many lease-local trials (-1 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var fault chaosAction
	switch {
	case *killAfter >= 0:
		fault = chaosAction{kind: chaosKill, after: *killAfter}
	case *stallAfter >= 0:
		fault = chaosAction{kind: chaosStall, after: *stallAfter}
	}

	plan, err := loadPlan(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ule-fleet worker:", err)
		return 1
	}
	w := &worker{plan: plan, opt: harness.BinaryOptions{CheckpointEvery: *ckEvery}, stallFor: *stallFor}

	// The lease source: stdin, or the one lease the flags spell out — as
	// the line the coordinator would have sent (the fault flags are every
	// line's default either way).
	var src io.Reader = os.Stdin
	if *shardPath != "" {
		src = strings.NewReader(lease{r: harness.TrialRange{Start: *start, Count: *count}, shard: *shardPath}.line())
	}
	code := 0
	for sc := bufio.NewScanner(src); sc.Scan(); {
		l, err := parseLease(sc.Text(), fault)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ule-fleet worker:", err)
			return 2
		}
		if err := w.serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "ule-fleet worker:", err)
			fmt.Printf("done %d %d err %q\n", l.r.Start, l.r.Count, err.Error())
			code = 1
			continue
		}
		fmt.Printf("done %d %d\n", l.r.Start, l.r.Count)
	}
	return code
}

// loadPlan reads and compiles the sweep spec file.
func loadPlan(specPath string) (*harness.Plan, error) {
	if specPath == "" {
		return nil, fmt.Errorf("need -spec")
	}
	spec, err := harness.LoadSpec(specPath)
	if err != nil {
		return nil, err
	}
	return spec.Compile()
}

// worker is the state a worker process keeps between leases: the compiled
// sweep (with its graphs and warm worker state) and the heartbeat clock,
// which Run's Progress hook reads and writes on the one goroutine.
type worker struct {
	plan     *harness.Plan
	opt      harness.BinaryOptions
	stallFor time.Duration
	lastBeat time.Time
}

// beat prints one heartbeat line.
func (w *worker) beat(done, count int) {
	w.lastBeat = time.Now()
	fmt.Printf("hb %d %d\n", done, count)
}

// serve runs one lease into its shard file.
func (w *worker) serve(l lease) error {
	if l.fault.kind == chaosKill && l.fault.after == 0 {
		// A unit-boundary kill: die before touching the shard at all.
		killSelf()
	}
	if l.shard == "" || l.r.Count <= 0 {
		return fmt.Errorf("lease needs a shard file and a positive count")
	}

	// Resume an interrupted shard of this range in place; a missing,
	// foreign or unresumable file starts fresh (the re-run reproduces the
	// same bytes, so nothing is lost but time).
	var (
		ck *harness.SweepCheckpoint
		em harness.Emitter
	)
	switch c, e, err := harness.ResumeShard(l.shard); {
	case err == harness.ErrSweepComplete && c.Start == l.r.Start && c.Count == l.r.Count:
		// A previous attempt finished after its lease was revoked.
		w.beat(l.r.Count, l.r.Count)
		return nil
	case err == nil && c.Start == l.r.Start && c.Count == l.r.Count:
		ck, em = c, e
		defer e.(io.Closer).Close() // the shard file, should the run stop before End
	case err == nil:
		e.(io.Closer).Close() // a shard of some other range: start fresh
	}
	done := 0
	if em == nil {
		f, err := os.Create(l.shard)
		if err != nil {
			return err
		}
		defer f.Close() // the emitter's End has flushed and fsynced it
		em = harness.NewShardEmitter(f, l.r.Start, l.r.Count, w.opt)
	} else {
		done = ck.Completed
	}

	// First heartbeat before the run starts: graph instantiation takes
	// real time, and the coordinator must not mistake a slow start for a
	// hang.
	w.beat(done, l.r.Count)

	_, err := w.plan.Run(harness.RunConfig{
		Workers:  1,
		Emitters: []harness.Emitter{em, &chaosEmitter{fault: l.fault, stallFor: w.stallFor}},
		// A ranged run keeps each trial on one engine shard: the fleet's
		// processes, not one trial's shards, fill the cores.
		Range:  &l.r,
		Resume: ck,
		Progress: func(done, total int) {
			// Paced by time, and driven by completed trials: a worker that
			// stops making progress stops beating.
			if time.Since(w.lastBeat) >= heartbeatPace {
				w.beat(done, total)
			}
		},
	})
	return err
}

// chaosEmitter counts the attempt-local trials the shard emitter has
// already written and fires the scheduled fault at its trigger point. It
// runs after the shard emitter in the emitter list, so a kill at trial K
// leaves K durable-or-torn trials in the file — exactly what a real
// mid-write crash leaves.
type chaosEmitter struct {
	fault    chaosAction
	stallFor time.Duration
	seen     int
}

func (c *chaosEmitter) Begin(harness.Spec, int) error { return nil }

func (c *chaosEmitter) Trial(harness.TrialResult) error {
	c.seen++
	switch {
	case c.fault.kind == chaosKill && c.seen == c.fault.after:
		killSelf()
	case c.fault.kind == chaosStall && c.seen-1 == c.fault.after:
		time.Sleep(c.stallFor)
	}
	return nil
}

func (c *chaosEmitter) End(*harness.Report) error { return nil }

// killSelf raises SIGKILL on this process — not os.Exit, so no deferred
// cleanup runs and the shard file is torn exactly as a machine crash
// would leave it.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be caught
}
