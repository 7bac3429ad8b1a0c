package harness

import (
	"ule/internal/core"
	"ule/internal/sim"
)

// Election is what defines one election on a prepared (graph, algorithm)
// cell: a sweep trial, a uled request and a `ule` row are each one of
// these. Together with Reduce it is the only recipe for turning those
// inputs into an engine run and the run into its scalar record, so equal
// inputs are the same election — byte for byte — from every front end.
type Election struct {
	// Seed drives the IDs, the wake schedule and all node coins.
	Seed int64
	// Model is the parsed execution model, handed to the engine unchanged.
	Model sim.ModelSpec
	// Wake is a wake-schedule spec in the parseWake grammar.
	Wake string
	// SmallIDs assigns permutation IDs 1..n instead of random 64-bit IDs;
	// Anonymous runs without identifiers.
	SmallIDs, Anonymous bool
	// DiameterEstimate grants a D-dependent algorithm the double-sweep
	// bound instead of the exact diameter.
	DiameterEstimate bool
	// MaxRounds and Opt are passed through (core.RunOpts).
	MaxRounds int
	Opt       core.Options
}

// RunOpts resolves the election against prep's graph and algorithm: the
// small-ID permutation, the materialized wake schedule and — only when the
// algorithm's Table 1 row assumes knowledge of D — the granted diameter
// (memoized on the graph). It fails only on a malformed wake spec.
//
// The permutation sits in a buffer prep owns (core.Prepared.PermutationIDs):
// ro.IDs is good until the next RunOpts on that Prepared, so run the
// election before resolving another.
func (e Election) RunOpts(prep *core.Prepared) (core.RunOpts, error) {
	g := prep.Graph()
	wake, err := WakeSchedule(e.Wake, g.N(), e.Seed)
	if err != nil {
		return core.RunOpts{}, err
	}
	ro := core.RunOpts{
		Seed:      e.Seed,
		Anonymous: e.Anonymous,
		MaxRounds: e.MaxRounds,
		Model:     e.Model,
		Wake:      wake,
		Opt:       e.Opt,
	}
	if e.SmallIDs {
		ro.IDs = prep.PermutationIDs(sim.NodeSeed(e.Seed, -2))
	}
	if prep.Spec().NeedsD {
		if e.DiameterEstimate {
			ro.D = g.DiameterEstimate()
		} else {
			ro.D = g.DiameterExact()
		}
	}
	return ro, nil
}

// Outcome is the scalar record of one finished election — everything a
// front end reports about a run; the O(n) sim.Result it was reduced from
// is discarded or recycled.
type Outcome struct {
	// D is the diameter granted as knowledge (0 when the algorithm runs
	// without knowing D).
	D int `json:"d,omitempty"`
	// Rounds is the executed round count; LastActive the last round with
	// activity (the natural time measure for quiet protocols).
	Rounds     int `json:"rounds"`
	LastActive int `json:"last_active"`
	// Messages and Bits are the run's communication totals.
	Messages int64 `json:"messages"`
	Bits     int64 `json:"bits"`
	// Leaders counts elected nodes; Unique is the paper's success
	// condition (exactly one leader, nobody undecided).
	Leaders int  `json:"leaders"`
	Unique  bool `json:"unique"`
	// Halted / HitRoundCap describe how the run ended.
	Halted      bool `json:"halted"`
	HitRoundCap bool `json:"hit_round_cap,omitempty"`
	// Fault measurements, set only when the run had a fault schedule
	// (fault-free records are unchanged from earlier schema versions):
	// applied crash/recovery event counts, messages lost to the fault
	// adversary, and the fault-tolerant success condition (core.Correct —
	// a unique leader among the live nodes).
	Crashes    int   `json:"crashes,omitempty"`
	Recoveries int   `json:"recoveries,omitempty"`
	Dropped    int64 `json:"dropped,omitempty"`
	LiveUnique bool  `json:"live_unique,omitempty"`
}

// Reduce reduces the result of running ro (as built by Election.RunOpts)
// to its scalar record.
func Reduce(ro core.RunOpts, res *sim.Result) Outcome {
	o := Outcome{
		D:           ro.D,
		Rounds:      res.Rounds,
		LastActive:  res.LastActive,
		Messages:    res.Messages,
		Bits:        res.Bits,
		Leaders:     res.LeaderCount(),
		Unique:      res.UniqueLeader(),
		Halted:      res.Halted,
		HitRoundCap: res.HitRoundCap,
	}
	if ro.Model.Faults != nil {
		o.Crashes = res.Crashes
		o.Recoveries = res.Recoveries
		o.Dropped = res.Dropped
		o.LiveUnique = core.Correct(ro.Model, res)
	}
	return o
}
