// Package election is the public API of the universal leader election
// library: a reproduction of "On the Complexity of Universal Leader
// Election" (Kutten, Pandurangan, Peleg, Robinson, Trehan; PODC 2013 /
// JACM 2015).
//
// It exposes the event-driven network simulator — the synchronous
// CONGEST/LOCAL models and the asynchronous model with deterministic
// delay adversaries — the paper's graph families (including the dumbbell
// and clique-cycle lower-bound constructions), and every algorithm of
// Table 1 behind a string registry:
//
//	g := election.Ring(64)
//	res, err := election.Elect(g, "leastel", election.Params{Seed: 1})
//	if res.UniqueLeader() { ... }
//
// The execution model — mode, asynchronous delay adversary, and the
// seed-deterministic fault adversary (crash-stop, crash-recovery, link
// drops, churn) — is one spec string on Params.Model:
//
//	res, _ := election.Elect(g, "leastel", election.Params{
//		Seed: 1, Model: "async+random:4+crash:0.2",
//	})
//	if res.UniqueLiveLeader() { ... }
//
// The same seed always reproduces the same transcript, faults included.
// Use Algorithms to list the registry and Describe for the paper result
// each name realizes. Custom protocols can be written against the
// simulator types re-exported here (Protocol, Process, Context) and run
// with Run: a Protocol is one method, New, which builds a node's Process
// from its NodeInfo; see the runnable examples.
package election

import (
	"math/rand"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// Re-exported simulator types: everything needed to implement and run a
// custom synchronous message-passing protocol.
type (
	// Graph is a port-numbered undirected network.
	Graph = graph.Graph
	// Result summarizes a run (messages, rounds, statuses, instruments).
	Result = sim.Result
	// Status is a node's election output (Leader / NonLeader / Undecided).
	Status = sim.Status
	// Knowledge is what every node knows a priori: n and D, each zero
	// when not granted. Elect grants an algorithm its Table 1 row and no
	// more (n only if it needs n, D only if it needs D); Run hands a
	// custom protocol what Config.Know says.
	Knowledge = sim.Knowledge
	// Config is the low-level simulator configuration for Run.
	Config = sim.Config
	// Protocol, Process, Context and Message are the extension points for
	// user-defined algorithms.
	Protocol = sim.Protocol
	Process  = sim.Process
	Context  = sim.Context
	Message  = sim.Message
	// NodeInfo is the static per-node information handed to Protocol.New.
	NodeInfo = sim.NodeInfo
	// Payload is the CONGEST-accounted message content interface.
	Payload = sim.Payload
	// Options tunes the paper's algorithms (candidate budgets, ε, k, …).
	Options = core.Options
)

// Statuses.
const (
	Undecided = sim.Undecided
	Leader    = sim.Leader
	NonLeader = sim.NonLeader
)

// Execution models: the synchronous CONGEST/LOCAL round models and the
// event-driven asynchronous model.
const (
	CONGEST = sim.CONGEST
	LOCAL   = sim.LOCAL
	ASYNC   = sim.ASYNC
)

// DelaySchedule is the asynchronous adversary: a deterministic per-message
// latency assignment used in ASYNC mode.
type DelaySchedule = sim.DelaySchedule

// ModelSpec is a parsed execution model: mode + delay schedule + fault
// schedule. It is the single source of truth for the model axes and
// their constraints; build one with ParseModel.
type ModelSpec = sim.ModelSpec

// FaultSchedule is the fault adversary's parsed, seed-deterministic
// schedule (crash-stop, crash-recovery, link drops, churn); build one
// with ParseFaults.
type FaultSchedule = sim.FaultSchedule

// Asynchronous delay schedules (ASYNC mode).
var (
	// UnitDelay delivers every message after exactly one tick.
	UnitDelay = sim.UnitDelay
	// RandomDelay draws each message's latency from [1, bound] (non-FIFO).
	RandomDelay = sim.RandomDelay
	// FIFODelay fixes a latency in [1, bound] per directed link (FIFO).
	FIFODelay = sim.FIFODelay
	// ParseDelay resolves "unit", "random:B" or "fifo:B" spec strings.
	ParseDelay = sim.ParseDelay
	// ParseModel resolves a full execution-model spec ("async+random:4",
	// "crash:0.2", ...) — the grammar every layer shares.
	ParseModel = sim.ParseModel
	// ParseFaults resolves a fault-schedule spec ("crash:0.2",
	// "crashrec:0.1:32:keep+drop:0.05", ...).
	ParseFaults = sim.ParseFaults
)

// WakeOnMessage marks a node that sleeps until the first message arrives.
const WakeOnMessage = sim.WakeOnMessage

// Graph family constructors (see internal/graph for details).
var (
	Path     = graph.Path
	Ring     = graph.Ring
	Star     = graph.Star
	Complete = graph.Complete
	Grid     = graph.Grid
	Torus    = graph.Torus
	// Hypercube builds the d-dimensional hypercube on 2^d nodes.
	Hypercube = graph.Hypercube
	// RandomConnected builds a connected graph with exactly n nodes and m
	// edges.
	RandomConnected = graph.RandomConnected
	// NewFromEdges builds a graph from an explicit edge list.
	NewFromEdges = graph.NewFromEdges
	// NewLollipop and NewDumbbell build the Theorem 3.1 lower-bound
	// family; NewCliqueCycle builds the Figure 1 construction.
	NewLollipop    = graph.NewLollipop
	NewDumbbell    = graph.NewDumbbell
	NewCliqueCycle = graph.NewCliqueCycle
)

// ID assignment helpers.
var (
	// RandomIDs draws n distinct identifiers from [1, n^4].
	RandomIDs = sim.RandomIDs
	// PermutationIDs assigns 1..n in random order.
	PermutationIDs = sim.PermutationIDs
	// SequentialIDs assigns base..base+n-1 in node order.
	SequentialIDs = sim.SequentialIDs
)

// Params configures one election run.
type Params struct {
	// Seed drives ID assignment and all node coins (default 0).
	Seed int64
	// IDs overrides the generated assignment; nil draws RandomIDs.
	IDs []int64
	// Anonymous removes identifiers (randomized algorithms only).
	Anonymous bool
	// D passes the known diameter (0 = compute exactly when required).
	D int
	// MaxRounds bounds the run (0 = simulator default).
	MaxRounds int
	// Model is the execution-model spec: mode, delay schedule and fault
	// schedule in one string — "local", "async+random:4", "crash:0.2",
	// "async+fifo:8+crashrec:0.1:32+drop:0.05", ... See sim.ParseModel
	// (re-exported as ParseModel) for the grammar and the axis
	// constraints; that doc is the single source of truth. Empty means
	// CONGEST, fault-free.
	Model string
	// Wake is the wake-up schedule (nil = simultaneous round 1).
	Wake []int
	// Opt tunes algorithm parameters.
	Opt Options
}

// Elect runs the named algorithm (see Algorithms) on g.
func Elect(g *Graph, algorithm string, p Params) (*Result, error) {
	m, err := sim.ParseModel(p.Model)
	if err != nil {
		return nil, err
	}
	return core.Run(g, algorithm, core.RunOpts{
		Seed:      p.Seed,
		IDs:       p.IDs,
		Anonymous: p.Anonymous,
		D:         p.D,
		MaxRounds: p.MaxRounds,
		Model:     m,
		Wake:      p.Wake,
		Opt:       p.Opt,
	})
}

// Run executes an arbitrary protocol under the low-level simulator
// configuration; use it for custom protocols built on the re-exported
// simulator types.
func Run(cfg Config, proto Protocol) (*Result, error) {
	return sim.Run(cfg, proto)
}

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string { return core.Names() }

// Describe returns a one-line description (paper result + summary) of a
// registered algorithm.
func Describe(name string) (string, error) { return core.Describe(name) }

// NewRand returns a seeded rand.Rand for graph/ID generation, so that
// examples and downstream code reproduce exactly.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
