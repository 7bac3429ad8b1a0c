package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// DelaySchedule is the asynchronous adversary: it assigns every message a
// deterministic delivery latency, measured in ticks of the event-driven
// engine. Schedules are pure functions of (run seed, sender, port, link
// sequence number), so a run is reproducible from its seed alone and the
// engine never needs shared mutable RNG state — delays can be computed
// from any goroutine in any order.
//
// The three built-in schedules cover the standard adversary classes:
//
//	unit      every message takes exactly one tick; with this schedule the
//	          asynchronous execution of an oblivious (message-driven)
//	          protocol collapses to its synchronous execution
//	random:B  each message independently takes 1..B ticks (links are not
//	          FIFO — messages on one link may overtake each other)
//	fifo:B    each directed link is assigned a fixed delay in 1..B; all of
//	          its messages take that long, so links are FIFO but the
//	          adversary stretches them heterogeneously
type DelaySchedule interface {
	// Name returns the canonical spec string ("unit", "random:4", ...).
	Name() string
	// Delay returns the latency in ticks (>= 1) of the seq-th message the
	// run with the given seed sends through port p of node u.
	Delay(seed int64, u, p, seq int) int
}

// UnitDelay returns the schedule in which every message takes one tick.
func UnitDelay() DelaySchedule { return unitDelay{} }

type unitDelay struct{}

func (unitDelay) Name() string                   { return "unit" }
func (unitDelay) Delay(int64, int, int, int) int { return 1 }

// RandomDelay returns the non-FIFO bounded-random schedule: every message
// independently takes a deterministic pseudo-random delay in [1, bound].
// Bounds below 1 are clamped to 1 (unit delays).
func RandomDelay(bound int) DelaySchedule { return randomDelay{clampBound(bound)} }

type randomDelay struct{ bound int }

func (d randomDelay) Name() string { return fmt.Sprintf("random:%d", d.bound) }

func (d randomDelay) Delay(seed int64, u, p, seq int) int {
	return 1 + int(delayHash(seed, u, p, seq)%uint64(d.bound))
}

// FIFODelay returns the FIFO-per-link worst-case schedule: each directed
// link gets a fixed deterministic pseudo-random delay in [1, bound] shared
// by all of its messages, so per-link ordering is preserved while the
// adversary makes some links much slower than others. Bounds below 1 are
// clamped to 1 (unit delays).
func FIFODelay(bound int) DelaySchedule { return fifoDelay{clampBound(bound)} }

func clampBound(b int) int {
	if b < 1 {
		return 1
	}
	return b
}

type fifoDelay struct{ bound int }

func (d fifoDelay) Name() string { return fmt.Sprintf("fifo:%d", d.bound) }

func (d fifoDelay) Delay(seed int64, u, p, _ int) int {
	return 1 + int(delayHash(seed, u, p, 0)%uint64(d.bound))
}

// delayHash mixes the run seed with the message coordinates through a
// splitmix64 chain; the chained finalizers keep adjacent (u, p, seq)
// triples statistically independent.
func delayHash(seed int64, u, p, seq int) uint64 {
	h := SplitMix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(u) + 0x632be59bd9b4e019)
	h = SplitMix64(h ^ uint64(p) + 0x9e6c63d0876a9a47)
	return SplitMix64(h ^ uint64(seq))
}

// ParseDelay resolves a delay-schedule spec string: "" or "unit",
// "random:B", "fifo:B" with B >= 1.
func ParseDelay(spec string) (DelaySchedule, error) {
	kind, arg, hasArg := strings.Cut(spec, ":")
	switch kind {
	case "", "unit":
		if hasArg {
			return nil, fmt.Errorf("sim: delay schedule %q takes no parameter", spec)
		}
		return UnitDelay(), nil
	case "random", "fifo":
		b, err := strconv.Atoi(arg)
		if err != nil || b < 1 {
			return nil, fmt.Errorf("sim: delay schedule %q needs a positive integer bound", spec)
		}
		if kind == "random" {
			return RandomDelay(b), nil
		}
		return FIFODelay(b), nil
	default:
		return nil, fmt.Errorf("sim: unknown delay schedule %q (want unit, random:B or fifo:B)", spec)
	}
}

// ParseMode resolves a communication/timing model name: "congest" (or ""),
// "local", "async".
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "congest":
		return CONGEST, nil
	case "local":
		return LOCAL, nil
	case "async":
		return ASYNC, nil
	default:
		return 0, fmt.Errorf("sim: unknown mode %q (want congest, local or async)", s)
	}
}
