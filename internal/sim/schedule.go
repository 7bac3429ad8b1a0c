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
	return d.delayFrom(linkMix(seed, u, p), seq)
}

func (d randomDelay) delayFrom(mix uint64, seq int) int {
	return 1 + below(SplitMix64(mix^uint64(seq)), d.bound)
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
	return d.delayFrom(linkMix(seed, u, p), 0)
}

func (d fifoDelay) delayFrom(mix uint64, _ int) int {
	return 1 + below(SplitMix64(mix), d.bound)
}

// linkDelay is how a built-in schedule lets the engine skip most of its
// hashing: Delay(seed, u, p, seq) is delayFrom(linkMix(seed, u, p), seq),
// and the engine mixes each link's prefix once per run, beside its
// sequence number, so a message pays one mixing round. A custom schedule
// does not implement it and is asked Delay per message.
type linkDelay interface {
	delayFrom(mix uint64, seq int) int
}

// linkMix is the part of a delay hash that depends only on the link: the
// run seed and the message's sender and port, through a splitmix64 chain
// whose chained finalizers keep adjacent (u, p) pairs, and with the last
// round over seq adjacent messages, statistically independent.
func linkMix(seed int64, u, p int) uint64 {
	h := SplitMix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(u) + 0x632be59bd9b4e019)
	return SplitMix64(h ^ uint64(p) + 0x9e6c63d0876a9a47)
}

// below reduces h to [0, bound): h mod bound, a mask where bound is a power
// of two.
func below(h uint64, bound int) int {
	if b := uint64(bound); b&(b-1) == 0 {
		return int(h & (b - 1))
	}
	return int(h % uint64(bound))
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
