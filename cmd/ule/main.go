// Command ule runs one universal leader election algorithm on one graph and
// prints the measured complexity.
//
// Usage:
//
//	ule -graph ring:64 -algo leastel -trials 5 -seed 1
//	ule -graph ring:64 -algo leastel -model async+random:8
//	ule -graph ring:64 -algo leastel -model async+random:8+crash:0.2
//	ule -graph ring:64 -algo leastel -model crashrec:0.2:32
//	ule -graph ring:4096 -algo leastel -trials 20 -cpuprofile cpu.out -memprofile mem.out
//	ule -list
//
// Graph specs: path:N ring:N star:N complete:N grid:RxC torus:RxC
// bipartite:AxB hypercube:DIM random:N:M regular:N:D caterpillar:SPINE:LEGS
// lollipop:N:M dumbbell:N:M cliquecycle:N:D
//
// -model is the execution model in one string (sim.ParseModel grammar):
// a mode — congest (the default), local or async — then, for async, the
// message-delay schedule (unit, random:B, fifo:B), then the
// seed-deterministic fault adversary (crash:P, crashrec:P:DOWN, drop:P,
// churn:P:K — see docs/FAULTS.md), joined by "+".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"ule/election"
	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
	"ule/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ule:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ule", flag.ContinueOnError)
	var (
		graphSpec = fs.String("graph", "ring:32", "graph family spec (see -help)")
		algo      = fs.String("algo", "leastel", "algorithm name (see -list)")
		trials    = fs.Int("trials", 1, "independent trials (fresh IDs/coins)")
		seed      = fs.Int64("seed", 1, "base seed")
		model     = fs.String("model", "", "execution model: mode[+delay][+faults], e.g. local, async+random:4, crash:0.2, async+fifo:8+crashrec:0.1:32 (empty = congest)")
		anonymous = fs.Bool("anonymous", false, "run without node identifiers")
		smallIDs  = fs.Bool("small-ids", false, "permutation IDs 1..n (needed for dfs)")
		maxRounds = fs.Int("max-rounds", core.FrontEndMaxRounds, "round cap")
		list      = fs.Bool("list", false, "list algorithms and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the trials to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file after the trials")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			// A final GC makes the heap profile reflect live data, while
			// alloc_space/alloc_objects still cover everything the trials
			// allocated — the view the fast-path regression work uses.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ule: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *list {
		for _, name := range election.Algorithms() {
			desc, _ := election.Describe(name)
			fmt.Fprintln(out, desc)
		}
		return nil
	}
	em, err := sim.ParseModel(*model)
	if err != nil {
		return err
	}
	g, err := graph.FromSpec(*graphSpec, *seed)
	if err != nil {
		return err
	}
	prep, err := core.Prepare(g, *algo)
	if err != nil {
		return err
	}
	if em.Mode == sim.ASYNC {
		ds := "unit"
		if em.Delay != nil {
			ds = em.Delay.Name()
		}
		fmt.Fprintf(out, "graph %s: n=%d m=%d  (async, delay %s)\n", *graphSpec, g.N(), g.M(), ds)
	} else {
		fmt.Fprintf(out, "graph %s: n=%d m=%d\n", *graphSpec, g.N(), g.M())
	}
	withFaults := em.Faults != nil
	if withFaults {
		fmt.Fprintf(out, "faults: %s\n", em.Faults.Name())
	}
	var table *stats.Table
	if withFaults {
		table = stats.NewTable("", "trial", "rounds", "messages", "bits", "leaders", "unique", "crashes", "recov", "dropped", "live-unique")
	} else {
		table = stats.NewTable("", "trial", "rounds", "messages", "bits", "leaders", "unique")
	}
	// Each trial is one election through the recipe a sweep trial and a
	// uled request use, so a (graph, algo, seed, flags) row is the same
	// election everywhere.
	var (
		msgs, rounds []float64
		res          sim.Result
	)
	for i := 0; i < *trials; i++ {
		ro := core.RunOpts{
			Seed:      *seed + int64(i),
			SmallIDs:  *smallIDs,
			Anonymous: *anonymous,
			MaxRounds: *maxRounds,
			Model:     em,
		}
		if err := prep.RunInto(ro, &res); err != nil {
			return err
		}
		o := prep.Reduce(ro, &res)
		if withFaults {
			table.AddRow(i, o.Rounds, o.Messages, o.Bits, o.Leaders, o.Unique,
				o.Crashes, o.Recoveries, o.Dropped, o.LiveUnique)
		} else {
			table.AddRow(i, o.Rounds, o.Messages, o.Bits, o.Leaders, o.Unique)
		}
		msgs = append(msgs, float64(o.Messages))
		rounds = append(rounds, float64(o.Rounds))
	}
	fmt.Fprint(out, table.String())
	ms, rs := stats.Summarize(msgs), stats.Summarize(rounds)
	fmt.Fprintf(out, "messages: mean=%.1f (±%.1f)  msgs/m=%.2f\n", ms.Mean, ms.Std, ms.Mean/float64(g.M()))
	fmt.Fprintf(out, "rounds:   mean=%.1f (±%.1f)\n", rs.Mean, rs.Std)
	return nil
}
