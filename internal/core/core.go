// Package core implements the paper's contribution: the universal leader
// election algorithms of Table 1 (Kutten, Pandurangan, Peleg, Robinson,
// Trehan — "On the Complexity of Universal Leader Election", PODC 2013 /
// JACM 2015), plus the baselines they are measured against.
//
// Every algorithm is a sim.Protocol; the package-level registry maps the
// names used by the CLI, the experiment harness and the benchmarks to
// constructors together with the knowledge each algorithm assumes (the
// "Knowledge" column of Table 1).
package core

import (
	"fmt"
	"math"
	"sort"

	"ule/internal/sim"
)

// Options configures algorithm constructors; zero values select the
// defaults documented per field.
type Options struct {
	// Epsilon is the target failure probability of leastel-const
	// (Theorem 4.4.(B)) and the density exponent of spanner-le
	// (Corollary 4.2). Default 0.1.
	Epsilon float64
	// FScale multiplies the candidate budget f(n) of leastel variants.
	// Default 1.
	FScale float64
	// SpannerK is the Baswana–Sen parameter (spanner stretch 2k-1), at
	// least 2. Default: ⌈2/Epsilon⌉ capped at 4.
	SpannerK int
	// DFSBudgetCap caps the per-agent step period 2^i of the Theorem 4.1
	// algorithm to keep simulations finite when IDs are large. Default 20
	// (period at most 2^20 rounds). The capped algorithm sends no more
	// messages than the uncapped one.
	DFSBudgetCap int
	// ClusterCandidateFactor scales the 8·ln(n)/n candidate probability
	// of Algorithm 1. Default 1.
	ClusterCandidateFactor float64

	// depot holds the flood family's free wire boxes (boxes.go): the
	// Prepared that builds the protocol sets it, so that its runs reuse
	// them. A protocol built without one allocates the boxes it sends.
	depot *boxDepot
}

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return 0.1
	}
	return o.Epsilon
}

func (o Options) fScale() float64 {
	if o.FScale <= 0 {
		return 1
	}
	return o.FScale
}

func (o Options) spannerK() int {
	k := o.SpannerK
	if k <= 0 {
		k = min(int(math.Ceil(2/o.epsilon())), 4)
	}
	return max(k, 2)
}

func (o Options) dfsBudgetCap() int {
	if o.DFSBudgetCap > 0 {
		return o.DFSBudgetCap
	}
	return 20
}

func (o Options) clusterFactor() float64 {
	if o.ClusterCandidateFactor <= 0 {
		return 1
	}
	return o.ClusterCandidateFactor
}

// Spec describes a registered algorithm.
type Spec struct {
	// Name is the registry key.
	Name string
	// Result ties the algorithm to the paper artifact it realizes.
	Result string
	// Summary is a one-line description.
	Summary string
	// Deterministic reports whether the algorithm uses no coins.
	Deterministic bool
	// NeedsN / NeedsD report required a-priori knowledge.
	NeedsN, NeedsD bool
	// NeedsIDs reports whether unique identifiers are required.
	NeedsIDs bool
	// Quiet requests the engine's StopWhenQuiet termination (the protocol
	// decides everywhere but does not halt every node explicitly).
	Quiet bool
	// Bound is the row's Table 1 entry.
	Bound Bound
	// New constructs the protocol. Every registered protocol renews its
	// processes (ARCHITECTURE.md § "Process lifetime").
	New func(o Options) sim.Recycler
}

// Bound is what a Table 1 row promises: its message and time bounds as
// terms in n, m and D, how often it elects, and whether it is
// message-driven — a node acts only on a delivery, so an asynchronous run
// under unit delays steps it exactly when a synchronous one does. Where
// the row writes min(f, D) the term is f, the quantity the experiment
// tables divide by.
type Bound struct {
	Msgs, Rounds  Term
	Success       Success
	MessageDriven bool
}

// Term is one bound, O(Label). Of evaluates it; it is nil where the row
// gives no bound in n, m and D (Theorem 4.1's time).
type Term struct {
	Label string
	Of    func(n, m, d int) float64
}

// Success is how often a row elects a unique leader.
type Success uint8

const (
	Always    Success = iota // probability 1
	WHP                      // with high probability
	OneMinusE                // at least 1−ε
	OverE                    // about 1/e
)

var (
	termM     = Term{"m", func(n, m, d int) float64 { return float64(m) }}
	termD     = Term{"D", func(n, m, d int) float64 { return float64(d) }}
	termMLogN = Term{"m·log n", func(n, m, d int) float64 { return float64(m) * log2(n) }}
	termDLogN = Term{"D·log n", func(n, m, d int) float64 { return float64(d) * log2(n) }}
)

// log2 is ⌈log2 n⌉, at least 1.
func log2(n int) float64 {
	l := 1.0
	for v := 2; v < n; v *= 2 {
		l++
	}
	return l
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("core: duplicate algorithm " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the spec registered under name.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// MustGet is Get for names known to exist; it panics otherwise (programmer
// error in experiment code).
func MustGet(name string) Spec {
	s, ok := registry[name]
	if !ok {
		panic("core: unknown algorithm " + name)
	}
	return s
}

// Names returns all registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns a human-readable one-line description of an algorithm.
func Describe(name string) (string, error) {
	s, ok := registry[name]
	if !ok {
		return "", fmt.Errorf("core: unknown algorithm %q", name)
	}
	return fmt.Sprintf("%-18s %-14s %s", s.Name, s.Result, s.Summary), nil
}
