package sim

import (
	"fmt"
	"testing"

	"ule/internal/graph"
)

// TestTimingWheelBasics drives the wheel directly through near-window,
// far-overflow, migration and reset transitions.
func TestTimingWheelBasics(t *testing.T) {
	w := newTimingWheel()
	if !w.empty() {
		t.Fatal("new wheel not empty")
	}
	// Near events land in the ring; cur+wheelSlots is the first tick
	// OUTSIDE the (open) ring window — it shares a slot with the pending
	// current tick — so it and everything beyond go to the overflow heap.
	w.at(3).wakes = append(w.at(3).wakes, 30)
	w.at(wheelSlots).wakes = append(w.at(wheelSlots).wakes, 31)
	w.at(wheelSlots + 700).wakes = append(w.at(wheelSlots+700).wakes, 32)
	w.at(5000).wakes = append(w.at(5000).wakes, 33)
	if got := w.minTick(); got != 3 {
		t.Fatalf("minTick = %d, want 3", got)
	}
	if len(w.farHeap) != 3 {
		t.Fatalf("overflow heap holds %d ticks, want 3", len(w.farHeap))
	}
	// Repeated at() must return the same bucket, not a fresh one.
	if len(w.at(3).wakes) != 1 || w.at(3).wakes[0] != 30 {
		t.Fatal("at(3) did not return the existing bucket")
	}

	// Process tick 3, then jump: advancing must migrate newly-in-window
	// overflow ticks into the ring.
	w.advance(3)
	b := w.takeCurrent(3)
	if b == nil || b.wakes[0] != 30 {
		t.Fatal("takeCurrent(3) lost the bucket")
	}
	w.release(b)
	if got := w.minTick(); got != wheelSlots {
		t.Fatalf("minTick = %d, want %d", got, wheelSlots)
	}
	w.advance(wheelSlots)
	eb := w.takeCurrent(wheelSlots)
	if eb == nil {
		t.Fatal("tick wheelSlots lost")
	}
	w.release(eb)
	if w.takeCurrent(wheelSlots) != nil {
		t.Fatal("takeCurrent returned an already-taken bucket")
	}
	w.advance(wheelSlots + 700)
	mb := w.takeCurrent(wheelSlots + 700)
	if mb == nil || len(mb.wakes) != 1 || mb.wakes[0] != 32 {
		t.Fatal("overflow bucket did not migrate into the ring")
	}
	w.release(mb)
	if got := w.minTick(); got != 5000 {
		t.Fatalf("minTick = %d, want 5000", got)
	}
	w.drop(5000)
	if !w.empty() {
		t.Fatal("wheel not empty after drop")
	}

	// Reset with pending state must clear both tiers.
	w.at(7).wakeAll = true
	w.at(9000).wakes = append(w.at(9000).wakes, 1)
	w.reset()
	if !w.empty() || w.cur != 0 || len(w.far) != 0 {
		t.Fatal("reset left pending state")
	}
}

// TestTimingWheelNoCurrentSlotCollision is the regression test for the
// migration window: a far tick at exactly cur+wheelSlots shares a slot
// with the current tick, whose bucket is still pending when advance runs
// (takeCurrent comes after), so it must NOT migrate yet.
func TestTimingWheelNoCurrentSlotCollision(t *testing.T) {
	w := newTimingWheel()
	w.at(1).wakes = append(w.at(1).wakes, 10)
	w.at(1 + wheelSlots).wakes = append(w.at(1+wheelSlots).wakes, 20)
	if len(w.farHeap) != 1 {
		t.Fatalf("tick 1+wheelSlots should be in overflow, heap=%v", w.farHeap)
	}
	w.advance(1)
	b := w.takeCurrent(1)
	if b == nil || len(b.wakes) != 1 || b.wakes[0] != 10 {
		t.Fatalf("tick 1's bucket clobbered by migration: %+v", b)
	}
	w.release(b)
	if got := w.minTick(); got != 1+wheelSlots {
		t.Fatalf("minTick = %d, want %d", got, 1+wheelSlots)
	}
	// One tick later the colliding slot is free and migration must land.
	w.advance(2)
	if len(w.farHeap) != 0 {
		t.Fatal("tick 1+wheelSlots did not migrate once its slot freed")
	}
	w.advance(1 + wheelSlots)
	mb := w.takeCurrent(1 + wheelSlots)
	if mb == nil || len(mb.wakes) != 1 || mb.wakes[0] != 20 {
		t.Fatalf("migrated bucket lost: %+v", mb)
	}
}

// busyProto keeps the network saturated — every awake node sends one
// message per round until stop — so every tick has a pending bucket.
// Nodes decide Leader only on a spontaneous wake in round >= 2, which
// makes a wake delivered at the wrong tick (or dropped) visible in the
// statuses.
type busyProto struct{ stop int }

func (b busyProto) New(info NodeInfo) Process { return &busyProc{stop: b.stop} }

type busyProc struct{ stop int }

func (p *busyProc) Start(c *Context) {
	if c.SpontaneousWake() && c.Round() >= 2 {
		c.Decide(Leader)
	} else {
		c.Decide(NonLeader)
	}
	c.Send(0, farWakeMsg{})
}

func (p *busyProc) Round(c *Context, inbox []Message) {
	if c.Round() >= p.stop {
		c.Halt()
		return
	}
	c.Send(0, farWakeMsg{})
}

// TestBusyNetworkFarWakeMatchesDense is the engine-level regression for
// the migration-window bug: with traffic on every tick, the slot of the
// current tick is always occupied when advance runs, and a wake
// scheduled exactly wheelSlots+k ticks ahead used to migrate onto it —
// destroying that tick's deliveries and waking the sleeper early.
func TestBusyNetworkFarWakeMatchesDense(t *testing.T) {
	g := graph.Ring(8)
	for _, wakeRound := range []int{wheelSlots + 44, wheelSlots + 45, 2*wheelSlots + 44} {
		wake := make([]int, g.N())
		for i := range wake {
			wake[i] = WakeOnMessage
		}
		wake[0] = 1
		wake[4] = wakeRound
		t.Run(fmt.Sprint(wakeRound), func(t *testing.T) {
			mustMatchReference(t, Config{Graph: g, Seed: 2, Wake: wake, MaxRounds: 1 << 12}, busyProto{stop: wakeRound + 60})
		})
	}
}

// farWakeProto broadcasts once on wake-up and halts after forwarding,
// like the benchmark wave, but is driven by far-future wake schedules.
type farWakeProto struct{}

type farWakeMsg struct{}

func (farWakeMsg) Bits() int { return 1 }

func (farWakeProto) New(info NodeInfo) Process { return &farWakeProc{} }

type farWakeProc struct{ sent bool }

func (p *farWakeProc) Start(c *Context) {
	if c.SpontaneousWake() {
		p.sent = true
		c.Broadcast(farWakeMsg{})
		c.Decide(NonLeader)
		c.Halt()
	}
}

func (p *farWakeProc) Round(c *Context, inbox []Message) {
	if !p.sent {
		p.sent = true
		c.BroadcastExcept(inbox[0].Port, farWakeMsg{})
		c.Decide(NonLeader)
	}
	c.Halt()
}

// TestFarFutureWakeMatchesDense schedules spontaneous wake-ups far beyond
// the wheel window (forcing the overflow heap and its migration path) and
// requires the event engine to match the reference interpreter exactly.
func TestFarFutureWakeMatchesDense(t *testing.T) {
	g := graph.Ring(24)
	for _, wakes := range [][]int{
		{0: 1, 5: wheelSlots + 50, 11: 3 * wheelSlots, 17: 5000},
		{0: 2000},
	} {
		wake := make([]int, g.N())
		for i := range wake {
			wake[i] = WakeOnMessage
		}
		for u, wr := range wakes {
			if wr != 0 {
				wake[u] = wr
			}
		}
		for u := range wake {
			if wake[u] == 0 {
				wake[u] = WakeOnMessage
			}
		}
		t.Run(fmt.Sprint(wakes), func(t *testing.T) {
			mustMatchReference(t, Config{Graph: g, Seed: 9, Wake: wake, MaxRounds: 1 << 14}, farWakeProto{})
		})
	}
}

// bigDelay is a schedule adversary whose latencies straddle the wheel
// window, exercising the overflow path for message deliveries in ASYNC.
type bigDelay struct{}

func (bigDelay) Name() string { return "big" }
func (bigDelay) Delay(seed int64, u, p, seq int) int {
	return 1 + int(SplitMix64(linkMix(seed, u, p)^uint64(seq))%(3*wheelSlots))
}

// TestAsyncBigDelaysDeterministic: far-overflow deliveries must be
// reproducible and must actually deliver (the run terminates cleanly).
func TestAsyncBigDelaysDeterministic(t *testing.T) {
	g := graph.Ring(16)
	run := func() *Result {
		res, err := Run(Config{
			Graph: g, Seed: 4, Model: ModelSpec{Mode: ASYNC, Delay: bigDelay{}}, MaxRounds: 1 << 15,
		}, farWakeProto{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.LastActive != b.LastActive {
		t.Fatalf("async big-delay run not reproducible: %+v vs %+v", a, b)
	}
	// Simultaneous wake: every node broadcasts once on Start (degree 2).
	if a.Messages != int64(2*g.N()) || !a.Halted {
		t.Fatalf("wave incomplete under big delays: %+v", a)
	}
}
