// Package fleet is the multi-process leg of the distributed sweep
// (ROADMAP item 5): a coordinator that partitions a sweep spec into
// contiguous trial-range work units, leases each unit — a line of stdin —
// to one of its long-lived worker processes, which writes it into a
// ule-sweepbin shard, and survives worker crashes, hangs, and shard
// corruption — revoking the lease, resuming from the last fsynced
// checkpoint, and reassigning with capped exponential backoff. Duplicate
// trial records from re-run prefixes are deduplicated by absolute trial
// index at merge time, so the merged binary and its JSON export are
// byte-for-byte identical to a single-process run at any worker count
// and any crash schedule. See docs/DISTRIBUTED.md for the protocol and
// the determinism argument.
package fleet

import (
	"ule/internal/harness"
	"ule/internal/sim"
)

// ChaosPlan injects seed-deterministic faults into a fleet run: for each
// work unit an independent deterministic draw (sim.SplitMix64 over Seed and
// the unit index) selects at most one fault, applied only to the unit's
// first attempt so retries always converge. The same seed and unit
// layout reproduce the exact fault schedule — the chaos gate in CI
// depends on this.
type ChaosPlan struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64 `json:"seed"`
	// Kill, Stall and Corrupt are per-unit probabilities (summing to at
	// most 1) of, respectively: SIGKILL the worker after K trials (K=0 is
	// a unit boundary, mid-unit otherwise), hang the worker past the
	// heartbeat deadline, and corrupt the shard tail after a clean exit.
	Kill    float64 `json:"kill,omitempty"`
	Stall   float64 `json:"stall,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
	// MaxActions caps the total injected faults across the run (first
	// units win, in unit order); 0 means no cap.
	MaxActions int `json:"max_actions,omitempty"`
}

type chaosKind int

const (
	chaosNone chaosKind = iota
	chaosKill
	chaosStall
	chaosCorrupt
)

func (k chaosKind) String() string {
	switch k {
	case chaosKill:
		return "kill"
	case chaosStall:
		return "stall"
	case chaosCorrupt:
		return "corrupt"
	}
	return "none"
}

// chaosAction is one scheduled fault: kind, and the number of unit-local
// trials after which it triggers (meaningful for kill and stall).
type chaosAction struct {
	kind  chaosKind
	after int
}

// actions precomputes the fault schedule for a unit layout. The draw for
// unit i depends only on (Seed, i, count), so the schedule is stable
// across worker counts and retry interleavings.
func (p *ChaosPlan) actions(units []harness.TrialRange) map[int]chaosAction {
	out := make(map[int]chaosAction)
	if p == nil {
		return out
	}
	budget := p.MaxActions
	for i, r := range units {
		if p.MaxActions > 0 && budget == 0 {
			break
		}
		a := p.decide(i, r.Count)
		if a.kind == chaosNone {
			continue
		}
		out[i] = a
		if p.MaxActions > 0 {
			budget--
		}
	}
	return out
}

// decide draws the fault (if any) for one unit.
func (p *ChaosPlan) decide(unit, count int) chaosAction {
	u1 := sim.SplitMix64(p.Seed ^ (uint64(unit+1) * 0x9E3779B97F4A7C15))
	frac := float64(u1>>11) / float64(1<<53)
	u2 := sim.SplitMix64(u1)
	switch {
	case frac < p.Kill:
		// K in [0, count]: 0 kills at the unit boundary before any trial,
		// count kills after the last trial but before the shard end record.
		return chaosAction{kind: chaosKill, after: int(u2 % uint64(count+1))}
	case frac < p.Kill+p.Stall:
		return chaosAction{kind: chaosStall, after: int(u2 % uint64(count))}
	case frac < p.Kill+p.Stall+p.Corrupt:
		return chaosAction{kind: chaosCorrupt}
	}
	return chaosAction{kind: chaosNone}
}
