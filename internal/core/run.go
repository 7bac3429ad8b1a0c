package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"ule/internal/graph"
	"ule/internal/sim"
)

// FrontEndMaxRounds is the round cap every front end gives a run whose
// caller names none: the `ule` flag's default, a sweep spec's max_rounds,
// a uled request's, and the lower-bound experiments'. A quarter of the
// engine's own sim.DefaultMaxRounds, it bounds a run that will not end —
// a crash cell whose survivors wait forever — at a cost a sweep can pay.
const FrontEndMaxRounds = 1 << 18

// RunOpts is one election on a (graph, algorithm) cell: a sweep trial, a
// uled request and a `ule` row are each one of these. A Prepared resolves
// it — draws the identifiers, grants the Table 1 knowledge — in config
// and records the run in Reduce, so equal RunOpts are the same election,
// byte for byte, from every front end.
type RunOpts struct {
	// Seed drives ID assignment and all node coins.
	Seed int64
	// IDs overrides the identifier assignment; SmallIDs draws the
	// permutation 1..n instead of random 64-bit identifiers. Anonymous
	// runs without identifiers (only valid for algorithms with NeedsIDs
	// == false) and so excludes both.
	IDs       []int64
	SmallIDs  bool
	Anonymous bool
	// D is the known diameter; 0 grants the graph's exact diameter, or
	// with DiameterEstimate its double-sweep bound (both memoized on the
	// graph, so repeated runs on one graph pay for it once — pass the
	// family's closed form to skip it entirely). See Prepared.Diameter.
	D                int
	DiameterEstimate bool
	// MaxRounds bounds the run (0 = the engine's sim.DefaultMaxRounds;
	// the front ends pass FrontEndMaxRounds where their caller names none).
	MaxRounds int
	// Model is the execution model — mode, delay schedule and fault
	// schedule in one parsed value. See sim.ModelSpec for the axes and
	// their constraints (that doc is the single source of truth); it is
	// handed to the engine unchanged. The zero ModelSpec is CONGEST,
	// fault-free.
	Model sim.ModelSpec
	// Shards partitions the event engine into contiguous node shards that
	// step concurrently and exchange cross-shard messages at tick
	// barriers. Results are byte-identical at every shard count; see
	// sim.Config.Shards for the exact semantics (0 = engine decides,
	// 1 = single shard, negative = GOMAXPROCS).
	Shards int
	// Wake is the wake-up schedule (nil = simultaneous).
	Wake []int
	// WatchEdges enables the lower-bound crossing instrument.
	WatchEdges [][2]int
	// Opt tunes the algorithm.
	Opt Options
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
	// adversary, and the fault-tolerant success condition (a unique
	// leader among the live nodes, Result.UniqueLiveLeader).
	Crashes    int   `json:"crashes,omitempty"`
	Recoveries int   `json:"recoveries,omitempty"`
	Dropped    int64 `json:"dropped,omitempty"`
	LiveUnique bool  `json:"live_unique,omitempty"`
}

// Reduce reduces the result of running ro on p to its scalar record.
func (p *Prepared) Reduce(ro RunOpts, res *sim.Result) Outcome {
	o := Outcome{
		D:           p.Diameter(ro),
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
		o.LiveUnique = res.UniqueLiveLeader()
	}
	return o
}

// Config resolves ro against the registered algorithm into exactly what
// the engine is handed for the run: the sim.Config (IDs drawn, the Table 1
// knowledge granted, the shard count resolved) and the protocol instance.
// It is for tests that drive the engine or the reference interpreter with
// that config themselves; a run made that way is not checked against its
// row (Prepared.RunInto). Its readers need the pair itself, which a
// Prepared never hands out: TestIdleHintSoundness gives it to the
// reference interpreter, which is no Runner, and the root package's
// protocolCensus and TestFloodStartBudget wrap the protocol, to hide its
// Renew and to meter its Start.
func Config(g *graph.Graph, algo string, ro RunOpts) (sim.Config, sim.Protocol, error) {
	spec, err := lookup(algo)
	if err != nil {
		return sim.Config{}, nil, err
	}
	p := Prepared{g: g, spec: spec}
	return p.config(ro)
}

// Run executes the registered algorithm on g once, on a fresh Prepared,
// and returns the run summary.
func Run(g *graph.Graph, algo string, ro RunOpts) (*sim.Result, error) {
	p, err := Prepare(g, algo)
	if err != nil {
		return nil, err
	}
	res := new(sim.Result)
	if err := p.RunInto(ro, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Prepared binds a registered algorithm to a graph with a reusable
// sim.Runner, so a batch driver pays per-trial setup cost — reverse-port
// tables, engine scratch buffers, the memoized diameter — once, and
// Rebind moves it to another cell. Results are identical to calling Run
// per trial. Its zero value is bound to nothing: Rebind binds it. Not
// safe for concurrent use; a sweep worker and a uled cell hold one each.
type Prepared struct {
	g      *graph.Graph
	spec   Spec
	runner *sim.Runner
	// rng is the per-trial seed stream (ID draws), reseeded for every use
	// so a trial pays neither a fill nor an allocation for it.
	rng *rand.Rand
	// ids and idSeen hold the current trial's drawn identifiers (the
	// permutation or the random assignment; a trial uses one of them) and
	// the random draw's duplicate filter, so a trial allocates neither.
	ids    []int64
	idSeen graph.IDSet
	// depot holds the flood family's free wire boxes during a run
	// (Options.depot).
	depot boxDepot
}

// Prepare validates the algorithm name and graph and builds the reusable
// runner state.
func Prepare(g *graph.Graph, algo string) (*Prepared, error) {
	p := new(Prepared)
	if err := p.Rebind(g, algo); err != nil {
		return nil, err
	}
	return p, nil
}

// lookup returns the registered algorithm's spec.
func lookup(algo string) (Spec, error) {
	spec, ok := Get(algo)
	if !ok {
		return Spec{}, fmt.Errorf("core: unknown algorithm %q", algo)
	}
	return spec, nil
}

// Rebind binds p to algo on g, keeping its storage: the Runner is
// rebound (sim.Runner.Rebind) and the identifier buffers reused unless g
// needs less than an eighth of them. The processes the Runner keeps are
// renewed across the change of graph and algorithm like a warm trial's
// (Renew ignores the old NodeInfo and replaces a process of another
// type), so a trial after Rebind(g, algo) reports exactly what one on
// Prepare(g, algo) does. On an error p is left bound as it was.
func (p *Prepared) Rebind(g *graph.Graph, algo string) error {
	spec, err := lookup(algo)
	if err != nil {
		return err
	}
	if p.runner == nil {
		p.runner = new(sim.Runner)
	}
	if err := p.runner.Rebind(g); err != nil {
		return err
	}
	if 8*g.N() < cap(p.ids) {
		p.ids, p.idSeen = nil, graph.IDSet{}
	}
	p.g, p.spec = g, spec
	return nil
}

// Spec returns the algorithm spec this Prepared runs.
func (p *Prepared) Spec() Spec { return p.spec }

// Graph returns the graph this Prepared is bound to.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// Diameter returns the diameter ro grants the algorithm: 0 when its
// Table 1 row does not assume knowledge of D, else ro.D when set, else the
// graph's memoized double-sweep bound (ro.DiameterEstimate) or exact
// diameter.
func (p *Prepared) Diameter(ro RunOpts) int {
	switch {
	case !p.spec.NeedsD:
		return 0
	case ro.D > 0:
		return ro.D
	case ro.DiameterEstimate:
		return p.g.DiameterEstimate()
	}
	return p.g.DiameterExact()
}

// ExactDiameterCap bounds n·m of a graph whose exact diameter a run may be
// granted: the all-pairs BFS behind graph.DiameterExact cannot be stopped
// (n·m = 2^25 takes 0.15 s).
const ExactDiameterCap = 1 << 28

// ErrExactDiameter is returned, wrapped, by ExactDiameterWithin.
var ErrExactDiameter = errors.New("core: exact diameter above the cap")

// ExactDiameterWithin is the one admission rule for the exact diameter: it
// refuses a run of algo on graphSpec, a graph of nodes and edges, that
// Diameter would grant the exact diameter of a graph whose n·m is above
// ExactDiameterCap — the row needs D and estimate
// (RunOpts.DiameterEstimate) is off. It is arithmetic on the sizes, which
// graph.SpecSize counts from the spec: it builds no graph and runs no BFS.
// An unknown algorithm passes; what binds it reports it.
func ExactDiameterWithin(graphSpec string, nodes, edges int64, algo string, estimate bool) error {
	if spec, ok := Get(algo); !ok || !spec.NeedsD || estimate || edges == 0 || nodes <= ExactDiameterCap/edges {
		return nil
	}
	return fmt.Errorf("%w: graph %s has %d nodes and %d edges, n·m above %d; set diameter_estimate",
		ErrExactDiameter, graphSpec, nodes, edges, ExactDiameterCap)
}

// config resolves ro against p's graph and algorithm into the engine
// configuration and protocol instance: the one place that draws a run's
// identifiers — random from NodeSeed(seed, -1), the small-ID permutation
// from NodeSeed(seed, -2), into p's own buffer — and grants its Table 1
// knowledge.
func (p *Prepared) config(ro RunOpts) (sim.Config, sim.Protocol, error) {
	g, spec := p.g, p.spec
	switch {
	case ro.Anonymous && spec.NeedsIDs:
		return sim.Config{}, nil, fmt.Errorf("%w: %s requires unique IDs", sim.ErrConfig, spec.Name)
	case ro.Anonymous && (ro.IDs != nil || ro.SmallIDs):
		return sim.Config{}, nil, fmt.Errorf("%w: anonymous excludes small_ids and IDs: an anonymous network has no identifiers", sim.ErrConfig)
	}
	if ro.IDs == nil && !ro.Anonymous {
		if p.rng == nil {
			p.rng = sim.NewRand(0)
		}
		if ro.SmallIDs {
			p.rng.Seed(sim.NodeSeed(ro.Seed, -2))
			p.ids = sim.PermutationIDsInto(p.ids, g.N(), p.rng)
		} else {
			p.rng.Seed(sim.NodeSeed(ro.Seed, -1))
			p.ids = sim.RandomIDsInto(p.ids, &p.idSeen, g.N(), p.rng)
		}
		ro.IDs = p.ids
	}
	// The shard count is the engine's own choice, resolved here so that
	// the depot has a shelf for every shard the run steps.
	shards := sim.EffectiveShards(ro.Shards, g.N(), runtime.GOMAXPROCS(0))
	p.depot.ready(shards)
	cfg := sim.Config{
		Graph:         g,
		IDs:           ro.IDs,
		Know:          sim.Knowledge{D: p.Diameter(ro)},
		Seed:          ro.Seed,
		Model:         ro.Model,
		MaxRounds:     ro.MaxRounds,
		Wake:          ro.Wake,
		StopWhenQuiet: spec.Quiet,
		WatchEdges:    ro.WatchEdges,
		Shards:        shards,
	}
	if spec.NeedsN {
		cfg.Know.N = g.N()
	}
	opt := ro.Opt
	opt.depot = &p.depot
	return cfg, spec.New(opt), nil
}

// RunInto executes one trial into *out, recycling out's slices across
// calls (see sim.Runner.RunInto), so a driver that reduces each result
// (Reduce) before the next trial keeps per-trial allocation flat; the
// filled Result is overwritten by the next RunInto with the same out. A
// finished run that broke its Table 1 row returns an error wrapping
// ErrGuarantee, with *out filled.
func (p *Prepared) RunInto(ro RunOpts, out *sim.Result) error {
	cfg, proto, err := p.config(ro)
	if err != nil {
		return err
	}
	err = p.runner.RunInto(cfg, proto, out)
	p.depot.stow()
	if err != nil {
		return err
	}
	return p.check(ro, cfg.IDs, out)
}
