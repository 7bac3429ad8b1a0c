package core

import (
	"fmt"
	"math/rand"

	"ule/internal/graph"
	"ule/internal/sim"
)

// RunOpts configures a single election run driven by the registry.
type RunOpts struct {
	// Seed drives ID assignment and all node coins.
	Seed int64
	// IDs overrides the generated identifier assignment.
	IDs []int64
	// Anonymous runs without identifiers (only valid for algorithms with
	// NeedsIDs == false).
	Anonymous bool
	// D is the known diameter; 0 means "compute exactly" (memoized on the
	// graph, so repeated runs on one graph pay the O(n·m) all-pairs BFS
	// once — pass the family's closed form to skip it entirely).
	D int
	// MaxRounds bounds the run (0 = engine default).
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
	// WatchEdges and CountPerEdge enable the lower-bound instruments.
	WatchEdges   [][2]int
	CountPerEdge bool
	// Opt tunes the algorithm.
	Opt Options
}

// Correct reports whether res is a correct election outcome under the
// given execution model: fault-free, the paper's success condition (one
// leader, everyone decided — Result.UniqueLeader); under a fault
// schedule, the fault-tolerant condition (exactly one live leader and
// agreement among the live nodes — Result.UniqueLiveLeader). A model
// with crash-recovery or churn is judged by the same live-node rule: a
// node that rejoined and re-decided counts, one still undecided at the
// end fails the run.
func Correct(m sim.ModelSpec, res *sim.Result) bool {
	if m.Faults == nil {
		return res.UniqueLeader()
	}
	return res.UniqueLiveLeader()
}

// Config resolves ro against the registered algorithm into exactly what
// the engine is handed for the run: the sim.Config (IDs drawn, the Table 1
// knowledge granted) and the protocol instance.
func Config(g *graph.Graph, algo string, ro RunOpts) (sim.Config, sim.Protocol, error) {
	p, err := bind(g, algo)
	if err != nil {
		return sim.Config{}, nil, err
	}
	return p.config(ro)
}

// Run executes the registered algorithm on g and returns the run summary.
func Run(g *graph.Graph, algo string, ro RunOpts) (*sim.Result, error) {
	cfg, proto, err := Config(g, algo, ro)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, proto)
}

// Prepared binds a registered algorithm to a graph with a reusable
// sim.Runner, so a batch driver pays per-trial setup cost — reverse-port
// tables, engine scratch buffers, the memoized diameter — once, and
// Rebind moves it to another cell. Results are identical to calling Run
// per trial. Not safe for concurrent use; sweep workers hold one Prepared
// per (graph, algorithm) cell each.
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
	idSeen map[int64]struct{}
}

// Prepare validates the algorithm name and graph and builds the reusable
// runner state.
func Prepare(g *graph.Graph, algo string) (*Prepared, error) {
	p, err := bind(g, algo)
	if err != nil {
		return nil, err
	}
	if p.runner, err = sim.NewRunner(g); err != nil {
		return nil, err
	}
	return p, nil
}

// bind is a Prepared without its Runner: all that resolving a run's
// configuration needs.
func bind(g *graph.Graph, algo string) (*Prepared, error) {
	spec, err := lookup(algo)
	if err != nil {
		return nil, err
	}
	return &Prepared{g: g, spec: spec, rng: sim.NewRand(0)}, nil
}

// lookup returns the registered algorithm's spec.
func lookup(algo string) (Spec, error) {
	spec, ok := Get(algo)
	if !ok {
		return Spec{}, fmt.Errorf("core: unknown algorithm %q", algo)
	}
	return spec, nil
}

// Rebind re-targets p at algo on g, keeping its storage: the Runner is
// rebound (sim.Runner.Rebind) and the identifier buffers reused unless g
// needs less than an eighth of them. The processes the Runner keeps are
// renewed across the change of graph and algorithm like a warm trial's
// (Renew ignores the old NodeInfo and replaces a process of another
// type), so a trial after Rebind(g, algo) reports exactly what one on
// Prepare(g, algo) does. On an error p is left as it was.
func (p *Prepared) Rebind(g *graph.Graph, algo string) error {
	spec, err := lookup(algo)
	if err != nil {
		return err
	}
	if err := p.runner.Rebind(g); err != nil {
		return err
	}
	if 8*g.N() < cap(p.ids) {
		p.ids, p.idSeen = nil, nil
	}
	p.g, p.spec = g, spec
	return nil
}

// Spec returns the algorithm spec this Prepared runs.
func (p *Prepared) Spec() Spec { return p.spec }

// Graph returns the graph this Prepared is bound to.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// PermutationIDs returns what sim.PermutationIDs(n, rand.New(rand.NewSource(
// seed))) would, in a buffer p owns: the slice is good until p next draws
// identifiers — the next PermutationIDs, or a Run without RunOpts.IDs.
func (p *Prepared) PermutationIDs(seed int64) []int64 {
	p.rng.Seed(seed)
	p.ids = sim.PermutationIDsInto(p.ids, p.g.N(), p.rng)
	return p.ids
}

// config resolves ro against p's graph and algorithm into the engine
// configuration and protocol instance. Knowledge is granted exactly as the
// algorithm's Table 1 row assumes; the random identifiers, when the run
// draws any, land in p's own buffer.
func (p *Prepared) config(ro RunOpts) (sim.Config, sim.Protocol, error) {
	g, spec := p.g, p.spec
	if spec.NeedsIDs && ro.Anonymous {
		return sim.Config{}, nil, fmt.Errorf("core: %s requires unique IDs", spec.Name)
	}
	d := ro.D
	if d <= 0 && spec.NeedsD {
		d = g.DiameterExact()
	}
	if ro.IDs == nil && !ro.Anonymous {
		if p.idSeen == nil {
			p.idSeen = make(map[int64]struct{}, g.N())
		}
		p.rng.Seed(sim.NodeSeed(ro.Seed, -1))
		p.ids = sim.RandomIDsInto(p.ids, p.idSeen, g.N(), p.rng)
		ro.IDs = p.ids
	}
	cfg := sim.Config{
		Graph: g,
		IDs:   ro.IDs,
		Know: sim.Knowledge{
			N: g.N(), HasN: spec.NeedsN,
			M: g.M(), HasM: false,
			D: d, HasD: spec.NeedsD,
		},
		Seed:          ro.Seed,
		Model:         ro.Model,
		MaxRounds:     ro.MaxRounds,
		Wake:          ro.Wake,
		StopWhenQuiet: spec.Quiet,
		WatchEdges:    ro.WatchEdges,
		CountPerEdge:  ro.CountPerEdge,
		Shards:        ro.Shards,
	}
	return cfg, spec.New(ro.Opt), nil
}

// Run executes one trial.
func (p *Prepared) Run(ro RunOpts) (*sim.Result, error) {
	cfg, proto, err := p.config(ro)
	if err != nil {
		return nil, err
	}
	return p.runner.Run(cfg, proto)
}

// RunInto executes one trial into *out, recycling out's slices and maps
// across calls (see sim.Runner.RunInto). Sweep drivers that reduce each
// result to scalars before the next trial use this to keep per-trial
// allocation flat; the filled Result is overwritten by the next RunInto
// with the same out.
func (p *Prepared) RunInto(ro RunOpts, out *sim.Result) error {
	cfg, proto, err := p.config(ro)
	if err != nil {
		return err
	}
	return p.runner.RunInto(cfg, proto, out)
}
