package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"ule/internal/harness"
)

// RunWorker is the exec-worker entry point: it runs one contiguous trial
// range of a sweep spec into a shard file and exits. cmd/ule-fleet
// dispatches here under -worker, and the fleet tests re-exec the test
// binary into it. The returned value is the process exit code.
//
// Protocol (see docs/DISTRIBUTED.md):
//   - flags: -spec FILE -start N -count N -shard FILE -checkpoint-every N
//     [-workers N] [-kill-after K] [-stall-after K] [-stall-for DUR]
//   - stdout: one "hb <done> <count>" line per completed trial — the
//     coordinator's heartbeat; silence past the deadline is a hang.
//   - an existing shard file is resumed from its last fsynced checkpoint
//     (harness.ResumeShard); an unresumable file is recreated from
//     scratch. Either way the finished shard is byte-identical.
//   - -kill-after K raises SIGKILL on this process after K unit-local
//     trials (0 = before any trial); -stall-after K sleeps -stall-for at
//     that point instead. Both model the chaos modes; the coordinator
//     schedules them on first attempts only.
func RunWorker(args []string) int {
	fs := flag.NewFlagSet("ule-fleet-worker", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "sweep spec JSON file")
		start      = fs.Int("start", 0, "first trial index of the unit")
		count      = fs.Int("count", 0, "trial count of the unit")
		shardPath  = fs.String("shard", "", "shard output file")
		ckEvery    = fs.Int("checkpoint-every", 0, "checkpoint cadence (trials)")
		workers    = fs.Int("workers", 1, "in-process pool size")
		killAfter  = fs.Int("kill-after", -1, "SIGKILL self after this many unit-local trials (-1 = never)")
		stallAfter = fs.Int("stall-after", -1, "hang after this many unit-local trials (-1 = never)")
		stallFor   = fs.Duration("stall-for", 10*time.Minute, "hang duration for -stall-after")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runWorker(*specPath, *shardPath, *start, *count, *ckEvery, *workers, *killAfter, *stallAfter, *stallFor); err != nil {
		fmt.Fprintln(os.Stderr, "ule-fleet worker:", err)
		return 1
	}
	return 0
}

func runWorker(specPath, shardPath string, start, count, ckEvery, workers, killAfter, stallAfter int, stallFor time.Duration) error {
	if killAfter == 0 {
		// A unit-boundary kill: die before touching the shard at all.
		killSelf()
	}
	if specPath == "" || shardPath == "" || count <= 0 {
		return fmt.Errorf("need -spec, -shard and a positive -count")
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec harness.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("spec %s: %w", specPath, err)
	}

	r := harness.TrialRange{Start: start, Count: count}
	opt := harness.BinaryOptions{CheckpointEvery: ckEvery}

	// Resume an interrupted shard in place when possible; a missing,
	// empty, or unresumable file starts fresh (the re-run reproduces the
	// same bytes, so nothing is lost but time).
	var (
		ck *harness.SweepCheckpoint
		em harness.Emitter
	)
	if st, err := os.Stat(shardPath); err == nil && st.Size() > 0 {
		c, e, err := harness.ResumeShard(shardPath)
		switch {
		case err == harness.ErrSweepComplete:
			// A previous attempt finished after its lease was revoked.
			fmt.Printf("hb %d %d\n", count, count)
			return nil
		case err == nil && c.Start == start && c.Count == count:
			ck, em = c, e
		}
	}
	if em == nil {
		f, err := os.Create(shardPath)
		if err != nil {
			return err
		}
		em = harness.NewShardEmitter(f, start, count, opt)
	}

	// First heartbeat before the sweep starts: spec compilation and graph
	// instantiation take real time, and the coordinator must not mistake
	// a slow start for a hang.
	fmt.Printf("hb 0 %d\n", count)

	chaos := &chaosEmitter{killAfter: killAfter, stallAfter: stallAfter, stallFor: stallFor}
	_, err = harness.Run(spec, harness.RunConfig{
		Workers:  workers,
		Emitters: []harness.Emitter{em, chaos},
		// A ranged run also keeps unset spec shards at 1: the fleet's
		// processes, not one trial's shards, fill the cores.
		Range:  &r,
		Resume: ck,
		Progress: func(done, total int) {
			// The heartbeat: any stdout line proves liveness; done/total let
			// the coordinator log progress.
			fmt.Printf("hb %d %d\n", done, total)
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
	killAfter  int
	stallAfter int
	stallFor   time.Duration
	seen       int
}

func (c *chaosEmitter) Begin(harness.Spec, int) error { return nil }

func (c *chaosEmitter) Trial(harness.TrialResult) error {
	c.seen++
	if c.seen == c.killAfter {
		killSelf()
	}
	if c.seen-1 == c.stallAfter {
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
