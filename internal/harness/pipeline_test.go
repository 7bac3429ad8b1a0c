package harness

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// tapEmitter counts the calls it sees and fails its failAt-th Trial
// (failAt < 0: never). Run calls emitters and Progress one at a time, so
// the counters need no lock; -race holds it to that.
type tapEmitter struct {
	failAt             int
	begun, seen, ended int
	onTrial            func()
}

var errTap = errors.New("tap emitter: scheduled failure")

func (e *tapEmitter) Begin(Spec, int) error { e.begun++; return nil }

func (e *tapEmitter) Trial(TrialResult) error {
	e.seen++
	if e.onTrial != nil {
		e.onTrial()
	}
	if e.seen-1 == e.failAt {
		return errTap
	}
	return nil
}

func (e *tapEmitter) End(*Report) error { e.ended++; return nil }

// TestEmitKeepsUpWithCompletion: a finished trial reaches the emitters
// about when it finishes — the backlog of completed but unemitted trials
// stays a small fraction of the sweep (it is what a crash loses past the
// last checkpoint, and what the reorder window has to hold), and the
// window stays at its initial size. Trials are claimed in index order, so
// the backlog is as deep as one worker is behind the others: one long
// trial (the slowest here costs 20–100 median ones), or whatever the
// others finish while the host keeps that worker off its core — up to 300
// seen on a loaded two-core machine, the one thing that grows the window,
// and then only to fit. A scheduler that starts each worker on its own
// far-apart slice holds back nearly half the sweep here.
func TestEmitKeepsUpWithCompletion(t *testing.T) {
	const workers = 2
	p, err := benchLikeSpec(300).Compile() // 54 cells × 300 = 16 200 trials
	if err != nil {
		t.Fatal(err)
	}
	emitted := &tapEmitter{failAt: -1}
	backlog := 0
	if _, err := p.Run(RunConfig{
		Workers:  workers,
		Emitters: []Emitter{emitted},
		Progress: func(done, _ int) { backlog = max(backlog, done-emitted.seen) },
	}); err != nil {
		t.Fatal(err)
	}
	if emitted.seen != p.total {
		t.Fatalf("emitted %d of %d trials", emitted.seen, p.total)
	}
	t.Logf("largest backlog: %d of %d trials completed but not emitted", backlog, p.total)
	if backlog >= p.total/8 {
		t.Errorf("up to %d completed trials sat unemitted, want under %d", backlog, p.total/8)
	}
	// A record is ahead of the next one to emit by less than the backlog
	// plus the trials in flight, so a window that doubled past that span
	// was grown by something other than a stalled worker.
	if size := len(p.ring.buf); size != ringSlots && size/2 > backlog+workers {
		t.Errorf("the reorder ring grew to %d slots for a backlog of %d, want its initial %d", size, backlog, ringSlots)
	}
}

// TestRunStopsOnEmitterError: an emitter error ends the sweep where it
// happened. Run returns that error; no emitter sees a record after the
// failing one; the workers claim at most one more trial each; End reaches
// nobody; and Run's goroutines — at most workers-1 of them, none at one
// worker — are gone when it returns. The goroutine counts are bounds, not
// equalities: base may count a goroutine of another test's making that
// exits during this one, which lowers every later count by one and must
// not read as a fault, while a worker still running when Run returns keeps
// left above base.
func TestRunStopsOnEmitterError(t *testing.T) {
	const failAt = 37
	p, err := benchLikeSpec(4).Compile() // 216 trials
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var (
			base                = runtime.NumGoroutine()
			peak, done, doneAt  int
			before, fail, after = &tapEmitter{failAt: -1}, &tapEmitter{failAt: failAt}, &tapEmitter{failAt: -1}
		)
		before.onTrial = func() { peak = max(peak, runtime.NumGoroutine()) }
		fail.onTrial = func() { doneAt = done } // the last call is the failing one
		_, err := p.Run(RunConfig{
			Workers:  workers,
			Emitters: []Emitter{before, fail, after},
			Progress: func(d, _ int) { done = d },
		})
		// Run has waited for its workers, but a goroutine counts until it has
		// returned from the function that told Run it was done: yield to one
		// caught in those few instructions. A worker Run had not waited for
		// would still be there at the deadline.
		left := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); left > base && time.Now().Before(deadline); left = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		if err != errTap {
			t.Fatalf("workers=%d: Run returned %v, want the emitter's error", workers, err)
		}
		if before.seen != failAt+1 || fail.seen != failAt+1 || after.seen != failAt {
			t.Errorf("workers=%d: emitters saw %d/%d/%d records around a failure at record %d, want %d/%d/%d",
				workers, before.seen, fail.seen, after.seen, failAt, failAt+1, failAt+1, failAt)
		}
		if before.begun != 1 || before.ended+fail.ended+after.ended != 0 {
			t.Errorf("workers=%d: Begin reached the first emitter %d times and End %d emitters, want 1 and 0",
				workers, before.begun, before.ended+fail.ended+after.ended)
		}
		// Each of the other workers is in a trial when the failure happens,
		// or claims one more before it sees the cursor moved.
		if done-doneAt > workers {
			t.Errorf("workers=%d: %d trials completed after the failure, want at most %d", workers, done-doneAt, workers)
		}
		if peak-base > workers-1 {
			t.Errorf("workers=%d: Run had %d goroutines of its own while emitting, want at most %d", workers, peak-base, workers-1)
		}
		if left > base {
			t.Errorf("workers=%d: %d goroutines after Run returned, %d before", workers, left, base)
		}
	}
}
