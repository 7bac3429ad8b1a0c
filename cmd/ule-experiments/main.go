// Command ule-experiments regenerates every table and figure of the
// paper's evaluation as markdown tables (the source of EXPERIMENTS.md):
//
//	E1  Theorem 3.1   Ω(m) messages on dumbbells (all algorithms)
//	E2  Lemma 3.5     bridge-crossing instrument
//	E3  Theorem 3.13  Ω(D) time on clique-cycles (Figure 1) + truncation
//	E4  §1            trivial 1/n algorithm success ≈ 1/e
//	E5  Cor 3.12      Ω(m) broadcast on dumbbells
//	E6–E14            one upper-bound sweep per Table 1 row
//	E15 Table 1       head-to-head synthesis on a common graph set
//	E16 §2 (JACM)     the asynchronous model: every algorithm under the
//	                  unit / bounded-random / FIFO-per-link adversaries
//	E17 fault model   survival under the seed-deterministic fault
//	                  adversaries (crash / crash-recovery / drop / churn)
//
// The lower-bound experiments (E1–E5) sample fresh adversarial instances
// per trial through internal/lowerbound; every upper-bound sweep (E6–E16)
// is a declarative internal/harness spec whose trials -workers workers
// claim in index order, so -workers parallelizes them across cores.
//
// Use -quick for a reduced sweep (CI-sized), -csv for machine output.
//
// Ad-hoc sweeps bypass the experiment tables entirely:
//
//	ule-experiments -sweep spec.json -workers 8 -json out.json
//	ule-experiments -sweep builtin:smoke -csv-out trials.csv
//
// The spec says everything about the sweep itself — its algorithms,
// graphs, modes, delays, faults, diameter grant and round cap; the flags
// only say where the output goes and how many workers run it. The sweep
// spec JSON schema (ule-sweep/v3) is documented in docs/SWEEP_SCHEMA.md.
//
// Million-trial sweeps use the compact checkpointed binary format
// (ule-sweepbin/v1, also in docs/SWEEP_SCHEMA.md) instead of JSON:
//
//	ule-experiments -sweep spec.json -bin out.ulsb
//	ule-experiments -sweep spec.json -resume out.ulsb   # after a crash/kill
//	ule-experiments -from-bin out.ulsb -json out.json -csv-out out.csv   # export, no sweep
//
// A killed -bin sweep loses at most -checkpoint-every trials; -resume
// verifies the spec, replays the surviving prefix, and continues — the
// finished file is byte-identical to an uninterrupted run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"ule/internal/core"
	"ule/internal/harness"
	"ule/internal/lowerbound"
	"ule/internal/sim"
	"ule/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ule-experiments:", err)
		os.Exit(1)
	}
}

// driver carries the experiment-wide settings into each table builder.
type driver struct {
	quick   bool
	seed    int64
	trials  int
	csv     bool
	workers int
}

func run(args []string) error {
	fs := flag.NewFlagSet("ule-experiments", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "reduced sweep sizes")
		seed      = fs.Int64("seed", 42, "base seed")
		csv       = fs.Bool("csv", false, "emit CSV instead of markdown")
		only      = fs.String("only", "", "run a single experiment id (e.g. E3)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "sweep worker goroutines")
		sweep     = fs.String("sweep", "", "run a declarative sweep instead of the experiments: JSON spec file or builtin:smoke")
		jsonOut   = fs.String("json", "", "sweep mode: write the ule-sweep/v3 JSON document to this file (- for stdout)")
		csvOut    = fs.String("csv-out", "", "sweep mode: write per-trial CSV to this file (- for stdout)")
		binOut    = fs.String("bin", "", "sweep mode: write the compact checkpointed ule-sweepbin/v1 document to this file")
		resume    = fs.String("resume", "", "sweep mode: resume an interrupted ule-sweepbin/v1 sweep file in place (spec must expand to the same sweep; excludes -json/-csv-out/-bin)")
		ckptEvery = fs.Int("checkpoint-every", 0, "sweep mode: trials between durable checkpoints in the -bin document (0 = default)")
		fromBin   = fs.String("from-bin", "", "export an ule-sweepbin/v1 file as its byte-identical ule-sweep/v3 JSON document to -json and/or its per-trial CSV to -csv-out (no sweep is run)")
		progress  = fs.Bool("progress", true, "sweep mode: report progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fromBin != "" {
		if *csvOut != "" {
			if err := exportBinary(*fromBin, *csvOut, exportCSV); err != nil || *jsonOut == "" {
				return err
			}
		}
		return exportBinary(*fromBin, *jsonOut, harness.ExportJSON)
	}
	if *sweep != "" {
		return runSweep(*sweep, sweepOpts{
			workers: *workers, jsonOut: *jsonOut, csvOut: *csvOut,
			binOut: *binOut, resume: *resume, ckptEvery: *ckptEvery,
			progress: *progress,
		})
	}
	d := &driver{quick: *quick, seed: *seed, trials: 10, csv: *csv, workers: *workers}
	if *quick {
		d.trials = 3
	}
	type exp struct {
		id  string
		fn  func() (*stats.Table, error)
		ann string
	}
	exps := []exp{
		{"E1", d.e1MessageLB, "Thm 3.1: every universal algorithm pays Ω(m) messages on dumbbells (msgs/m stays ≥ ~1 as m grows)"},
		{"E2", d.e2Bridge, "Lemma 3.5: elections must cross a bridge; messages precede the crossing"},
		{"E3", d.e3TimeLB, "Thm 3.13 / Fig. 1: rounds/D stays ≥ ~1 on clique-cycles; truncated budgets kill success"},
		{"E4", d.e4Trivial, "§1: the 1/n self-election succeeds w.p. ≈ 1/e at zero messages"},
		{"E5", d.e5Broadcast, "Cor 3.12: flooding broadcast costs Θ(m) (≈2 msgs/edge) on dumbbells"},
		{"E6", d.e6DFS, "Thm 4.1: msgs/m bounded by a constant; time grows exponentially with min ID"},
		{"E7", d.e7LeastElF, "Thm 4.4: messages scale with m·log f(n); success rises with f(n)"},
		{"E8", d.ratio(ratioTables["E8"]), "Thm 4.4.(A): msgs/(m·log log n) bounded, success whp"},
		{"E9", d.e9Const, "Thm 4.4.(B): msgs/m bounded; success ≥ 1−ε across ε"},
		{"E10", d.ratio(ratioTables["E10"]), "Cor 4.2: on dense graphs spanner+LE gets O(m) msgs and O(D) time"},
		{"E11", d.ratio(ratioTables["E11"]), "Cor 4.5: no knowledge of n; msgs/(m·log n) bounded; prob 1"},
		{"E12", d.ratio(ratioTables["E12"]), "Cor 4.6: expected O(D) time / O(m) msgs with restarts"},
		{"E13", d.ratio(ratioTables["E13"]), "Thm 4.7: msgs/(m+n log n) bounded; time O(D log n)"},
		{"E14", d.ratio(ratioTables["E14"]), "Thm 4.10: deterministic, msgs/(m log n) and rounds/(D log n) bounded"},
		{"E15", d.e15Table1, "Table 1 head-to-head on a common graph"},
		{"E16", d.e16Async, "asynchronous model: success and cost under the unit / bounded-random / FIFO-per-link delay adversaries"},
		{"E17", d.e17Faults, "fault model: the paper's algorithms assume a fault-free network; survival (unique leader among live nodes) under seed-deterministic crash / crash-recovery / drop / churn adversaries"},
	}
	for _, e := range exps {
		if *only != "" && e.id != *only {
			continue
		}
		t, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if d.csv {
			fmt.Printf("# %s\n%s\n", e.id, t.CSV())
		} else {
			fmt.Printf("%s\n*%s*\n\n", t.Markdown(), e.ann)
		}
	}
	return nil
}

// sweepOpts carries the sweep-mode flag set into runSweep.
type sweepOpts struct {
	workers         int
	jsonOut, csvOut string
	binOut, resume  string
	ckptEvery       int
	progress        bool
}

// exportBinary streams a ule-sweepbin/v1 file through export to outPath
// (stdout when empty or "-"): harness.ExportJSON for the byte-identical
// ule-sweep/v3 JSON document, exportCSV for the per-trial CSV.
func exportBinary(binPath, outPath string, export func(io.Reader, io.Writer) error) error {
	in, err := os.Open(binPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out := os.Stdout
	if outPath != "" && outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := export(in, out); err != nil {
		return err
	}
	if out != os.Stdout {
		return out.Close()
	}
	return nil
}

// exportCSV writes a binary document's trials as the CSV a live -csv-out
// writes (the CSV emitter looks at neither the spec nor the report).
func exportCSV(in io.Reader, out io.Writer) error {
	em := harness.NewCSVEmitter(out)
	if err := em.Begin(harness.Spec{}, 0); err != nil {
		return err
	}
	if err := harness.DecodeBinaryTrials(in, em.Trial); err != nil {
		return err
	}
	return em.End(nil)
}

// runSweep executes one declarative sweep spec through the harness.
func runSweep(specArg string, o sweepOpts) error {
	spec, err := harness.LoadSpec(specArg)
	if err != nil {
		return err
	}
	rc := harness.RunConfig{Workers: o.workers}
	if o.resume != "" {
		// A resumed run appends to the binary file; the text emitters
		// cannot join mid-document (they would silently miss the completed
		// prefix) — export afterwards with -from-bin instead.
		if o.jsonOut != "" || o.csvOut != "" || o.binOut != "" {
			return fmt.Errorf("-resume cannot be combined with -json/-csv-out/-bin; export with -from-bin after the sweep")
		}
		ck, em, err := harness.ResumeBinary(o.resume)
		if err != nil {
			if errors.Is(err, harness.ErrSweepComplete) {
				fmt.Fprintf(os.Stderr, "sweep %s: %s already complete (%d trials)\n", spec.Name, o.resume, ck.Total)
				return nil
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep %s: resuming %s from trial %d/%d\n", spec.Name, o.resume, ck.Completed, ck.Total)
		rc.Resume = ck
		rc.Emitters = append(rc.Emitters, em)
		defer em.(io.Closer).Close() // End closes the file; this covers a run that fails before it
	}
	// Close errors must fail the sweep: the final buffered write can
	// surface only at Close on some filesystems. The deferred pass covers
	// early error returns; the explicit pass below reports the error.
	var outFiles []*os.File
	defer func() {
		for _, f := range outFiles {
			f.Close()
		}
	}()
	openOut := func(path string) (*os.File, error) {
		if path == "-" {
			return os.Stdout, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		outFiles = append(outFiles, f)
		return f, nil
	}
	if o.jsonOut != "" {
		f, err := openOut(o.jsonOut)
		if err != nil {
			return err
		}
		rc.Emitters = append(rc.Emitters, harness.NewJSONEmitter(f))
	}
	if o.csvOut != "" {
		f, err := openOut(o.csvOut)
		if err != nil {
			return err
		}
		rc.Emitters = append(rc.Emitters, harness.NewCSVEmitter(f))
	}
	if o.binOut != "" {
		f, err := openOut(o.binOut)
		if err != nil {
			return err
		}
		rc.Emitters = append(rc.Emitters, harness.NewBinaryEmitter(f, harness.BinaryOptions{CheckpointEvery: o.ckptEvery}))
	}
	total := spec.NumTrials()
	if o.progress {
		every := total / 20
		if every < 1 {
			every = 1
		}
		rc.Progress = func(done, tot int) {
			if done%every == 0 || done == tot {
				fmt.Fprintf(os.Stderr, "\rsweep %s: %d/%d trials", spec.Name, done, tot)
				if done == tot {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	start := time.Now()
	rep, err := harness.Run(spec, rc)
	if err != nil {
		return err
	}
	files := outFiles
	outFiles = nil
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d trials, %d groups, %d errors, %d workers, %v\n",
		spec.Name, rep.Total, len(rep.Groups), rep.Errors, rep.Workers, time.Since(start).Round(time.Millisecond))
	// Human-readable synthesis on stdout unless it would interleave with
	// a document already going there.
	if o.jsonOut != "-" && o.csvOut != "-" {
		t := stats.NewTable(fmt.Sprintf("sweep %s", spec.Name),
			"algo", "graph", "mode", "wake", "delay", "fault", "n", "m", "trials", "msgs mean", "rounds mean", "success", "survival", "errors")
		for _, g := range rep.Groups {
			delay, fault, survival := g.Delay, g.Fault, "-"
			if delay == "" {
				delay = "-"
			}
			if fault == "" {
				fault = "-"
			} else {
				survival = fmt.Sprintf("%.2f", g.Survival)
			}
			t.AddRow(g.Algo, g.Graph, g.Mode, g.Wake, delay, fault, g.N, g.M, g.Trials,
				g.Messages.Mean, g.Rounds.Mean, g.Success, survival, g.Errors)
		}
		fmt.Print(t.String())
	}
	return nil
}

// sweep expands and runs one harness spec with the driver's trial count,
// base seed and worker pool. Every upper-bound experiment funnels its
// election runs through here.
func (d *driver) sweep(spec harness.Spec) (*harness.Report, error) {
	if spec.Trials == 0 {
		spec.Trials = d.trials
	}
	if spec.Seed == 0 {
		spec.Seed = d.seed
	}
	return harness.Run(spec, harness.RunConfig{Workers: d.workers})
}

func (d *driver) sizes(quickSizes, fullSizes []int) []int {
	if d.quick {
		return quickSizes
	}
	return fullSizes
}

// ---- Lower-bound experiments (adversarial per-trial instances) ----

// e1: Ω(m) message lower bound across algorithms and densities.
func (d *driver) e1MessageLB() (*stats.Table, error) {
	t := stats.NewTable("E1 — Thm 3.1: messages/m on dumbbell graphs",
		"algo", "n(total)", "m(total)", "D", "msgs/m min", "msgs/m mean", "success")
	algos := []string{"leastel", "leastel-const", "flood", "cluster", "kingdom", "lasvegas", "leastel-estimate"}
	type sz struct{ n, m int }
	var cfgs []sz
	if d.quick {
		cfgs = []sz{{16, 60}, {24, 140}}
	} else {
		cfgs = []sz{{16, 60}, {24, 140}, {32, 300}, {48, 700}, {64, 1200}}
	}
	for _, algo := range algos {
		for _, cfg := range cfgs {
			row, err := lowerbound.MessageLB(cfg.n, cfg.m, lowerbound.Sweep{
				Algo: algo, Trials: d.trials, Seed: d.seed,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(algo, 2*cfg.n, 2*cfg.m, row.D, row.MsgsPerM.Min, row.MsgsPerM.Mean, row.SuccessRate)
		}
	}
	return t, nil
}

func (d *driver) e2Bridge() (*stats.Table, error) {
	t := stats.NewTable("E2 — Lemma 3.5: bridge crossing instrument (dumbbells)",
		"algo", "n(total)", "m(total)", "cross round mean", "msgs before cross mean", "success")
	for _, algo := range []string{"leastel", "leastel-const", "kingdom"} {
		for _, cfg := range [][2]int{{16, 100}, {32, 300}} {
			row, err := lowerbound.MessageLB(cfg[0], cfg[1], lowerbound.Sweep{
				Algo: algo, Trials: d.trials, Seed: d.seed + 1,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(algo, 2*cfg[0], 2*cfg[1], row.CrossRound.Mean, row.BeforeCross.Mean, row.SuccessRate)
		}
	}
	return t, nil
}

func (d *driver) e3TimeLB() (*stats.Table, error) {
	t := stats.NewTable("E3 — Thm 3.13 / Figure 1: rounds/D on clique-cycles + truncated budgets",
		"algo", "n", "D", "rounds/D min", "rounds/D mean", "success", "succ@0.25D", "succ@0.5D")
	ds := d.sizes([]int{8, 16}, []int{8, 16, 32, 64})
	for _, algo := range []string{"leastel", "flood", "lasvegas", "kingdom-d"} {
		for _, dd := range ds {
			row, trunc, err := lowerbound.TimeLB(4*dd, dd, lowerbound.Sweep{Algo: algo, Trials: d.trials, Seed: d.seed}, 0.25, 0.5)
			if err != nil {
				return nil, err
			}
			t.AddRow(algo, row.N, row.D, row.RoundsPerD.Min, row.RoundsPerD.Mean,
				row.SuccessRate, trunc[0].SuccessRate, trunc[1].SuccessRate)
		}
	}
	return t, nil
}

func (d *driver) e4Trivial() (*stats.Table, error) {
	t := stats.NewTable("E4 — §1: the zero-message 1/n self-election",
		"n", "trials", "success", "1/e", "messages")
	trials := 2000
	if d.quick {
		trials = 300
	}
	for _, n := range d.sizes([]int{64}, []int{32, 64, 128, 256, 512}) {
		row, err := lowerbound.TrivialSuccess(n, trials, d.seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, row.Trials, row.SuccessRate, 0.368, row.Messages)
	}
	return t, nil
}

func (d *driver) e5Broadcast() (*stats.Table, error) {
	t := stats.NewTable("E5 — Cor 3.12: flooding broadcast messages/m on dumbbells",
		"n(total)", "m(total)", "msgs/m mean", "majority ok", "rounds mean")
	type sz struct{ n, m int }
	var cfgs []sz
	if d.quick {
		cfgs = []sz{{16, 60}}
	} else {
		cfgs = []sz{{16, 60}, {24, 140}, {32, 300}, {64, 1200}}
	}
	for _, cfg := range cfgs {
		row, err := lowerbound.BroadcastLB(cfg.n, cfg.m, d.trials, d.seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.N, 2*cfg.m, row.MsgsPerM.Mean, row.MajorityOK, row.MeanRounds)
	}
	return t, nil
}

// ---- Upper-bound sweeps (Table 1 rows), all driven by the harness ----

// ratioTable declares one upper-bound sweep whose ratio columns divide
// the measured means by the core.Bound of its first algorithm.
type ratioTable struct {
	title       string
	lead        []string // leading columns: n, m, D, algo or variant, graph, msgs mean
	algos       []string
	graph       func(n int) string
	quick, full []int // sizes passed to graph
	smallIDs    bool
	opt         core.Options
}

func random(deg int) func(n int) string {
	return func(n int) string { return fmt.Sprintf("random:%d:%d", n, deg*n) }
}

// ratioTables are the Table 1 rows whose experiment is the ratio of the
// measured cost to the row's bound.
var ratioTables = map[string]ratioTable{
	"E8": {title: "E8 — Thm 4.4.(A): msgs/(m·log log n) with f(n)=log n",
		lead: []string{"n", "m", "msgs mean"}, algos: []string{"leastel-loglog"},
		graph: random(5), quick: []int{64, 128}, full: []int{64, 128, 256, 512}},
	"E10": {title: "E10 — Cor 4.2: spanner+LE vs plain LE on dense graphs (m ≈ n^1.5)",
		lead: []string{"n", "m", "algo"}, algos: []string{"spanner-le", "leastel"},
		graph: func(n int) string { return fmt.Sprintf("random:%d:%d", n, n*int(math.Sqrt(float64(n)))) },
		quick: []int{64}, full: []int{64, 144, 256, 400}, opt: core.Options{Epsilon: 0.5}},
	"E11": {title: "E11 — Cor 4.5: no knowledge of n; msgs/(m·log n) bounded",
		lead: []string{"n", "m"}, algos: []string{"leastel-estimate"},
		graph: random(4), quick: []int{64, 128}, full: []int{64, 128, 256, 512}},
	"E12": {title: "E12 — Cor 4.6: Las Vegas with knowledge of n and D",
		lead: []string{"graph", "n", "D"}, algos: []string{"lasvegas"},
		graph: func(n int) string { return fmt.Sprintf("ring:%d", n) }, quick: []int{32}, full: []int{32, 64, 128, 256}},
	"E13": {title: "E13 — Thm 4.7: clustering algorithm O(m+n log n) msgs, O(D log n) time",
		lead: []string{"n", "m"}, algos: []string{"cluster"},
		graph: random(6), quick: []int{64, 128}, full: []int{64, 128, 256, 512}},
	"E14": {title: "E14 — Thm 4.10: growing kingdoms, deterministic, no knowledge",
		lead: []string{"variant", "n", "m"}, algos: []string{"kingdom", "kingdom-d"},
		graph: random(4), quick: []int{48}, full: []int{48, 96, 192, 384}, smallIDs: true},
}

// ratio runs the sweep r declares and divides each group's mean messages
// and rounds by the first algorithm's bound at the graph's n, m and exact D.
func (d *driver) ratio(r ratioTable) func() (*stats.Table, error) {
	return func() (*stats.Table, error) {
		b := core.MustGet(r.algos[0]).Bound
		t := stats.NewTable(r.title, slices.Concat(r.lead, []string{over("msgs", b.Msgs), over("rounds", b.Rounds), "success"})...)
		spec := harness.Spec{Algos: r.algos, SmallIDs: r.smallIDs, Opt: r.opt}
		for _, n := range d.sizes(r.quick, r.full) {
			spec.Graphs = append(spec.Graphs, r.graph(n))
		}
		rep, err := d.sweep(spec)
		if err != nil {
			return nil, err
		}
		graphs := rep.Graphs()
		for gi, gs := range spec.Graphs {
			g := graphs[gi]
			n, m, diam := g.N(), g.M(), g.DiameterExact()
			for _, algo := range spec.Algos {
				grp := rep.Group(algo, gs, "congest", "sync")
				cells := map[string]any{"n": n, "m": m, "D": diam, "algo": algo, "variant": algo,
					"graph": gs[:strings.IndexByte(gs, ':')], "msgs mean": grp.Messages.Mean}
				var row []any
				for _, col := range r.lead {
					row = append(row, cells[col])
				}
				t.AddRow(append(row, grp.Messages.Mean/b.Msgs.Of(n, m, diam), grp.Rounds.Mean/b.Rounds.Of(n, m, diam), grp.Success)...)
			}
		}
		return t, nil
	}
}

// over is the header of a ratio column: quantity/label, the label
// parenthesised when it is compound.
func over(quantity string, term core.Term) string {
	if len(term.Label) > 1 {
		return quantity + "/(" + term.Label + ")"
	}
	return quantity + "/" + term.Label
}

func (d *driver) e6DFS() (*stats.Table, error) {
	t := stats.NewTable("E6 — Thm 4.1: DFS election messages/m and exponential time in min ID",
		"graph", "n", "m", "msgs/m mean", "rounds (minID=1)", "rounds (minID=3)", "rounds (minID=5)")
	spec := harness.Spec{Name: "e6-dfs", Algos: []string{"dfs"}, SmallIDs: true}
	for _, n := range d.sizes([]int{24}, []int{24, 48, 96}) {
		spec.Graphs = append(spec.Graphs, fmt.Sprintf("random:%d:%d", n, 4*n))
	}
	rep, err := d.sweep(spec)
	if err != nil {
		return nil, err
	}
	graphs := rep.Graphs()
	for gi, gs := range spec.Graphs {
		grp := rep.Group("dfs", gs, "congest", "sync")
		if grp == nil {
			return nil, fmt.Errorf("missing group for %s", gs)
		}
		g := graphs[gi]
		// The exponential-in-min-ID probes need controlled sequential ID
		// assignments, which is a per-run instrument rather than a sweep
		// axis; run them directly on the shared graph instances.
		var at [3]float64
		for i, minID := range []int64{1, 3, 5} {
			res, err := core.Run(g, "dfs", core.RunOpts{
				Seed: d.seed, IDs: sim.SequentialIDs(g.N(), minID), MaxRounds: 1 << 19,
			})
			if err != nil {
				return nil, err
			}
			at[i] = float64(res.Rounds)
		}
		t.AddRow("random", g.N(), g.M(), grp.Messages.Mean/float64(g.M()), at[0], at[1], at[2])
	}
	return t, nil
}

func (d *driver) e7LeastElF() (*stats.Table, error) {
	t := stats.NewTable("E7 — Thm 4.4: messages and success vs candidate budget f(n)",
		"f(n)", "n", "m", "msgs mean", "msgs/m", "rounds mean", "success")
	n := 256
	if d.quick {
		n = 96
	}
	gs := fmt.Sprintf("random:%d:%d", n, 6*n)
	for _, row := range []struct {
		label string
		algo  string
		opt   core.Options
	}{
		{"n (all)", "leastel", core.Options{}},
		{"log n", "leastel-loglog", core.Options{}},
		{"4ln(1/0.1)", "leastel-const", core.Options{Epsilon: 0.1}},
		{"4ln(1/0.5)", "leastel-const", core.Options{Epsilon: 0.5}},
	} {
		// One spec per row: Options vary per row, and the shared Seed
		// keeps the graph instance and per-rep coins identical across
		// rows (paired comparison).
		rep, err := d.sweep(harness.Spec{
			Name: "e7-" + row.label, Algos: []string{row.algo}, Graphs: []string{gs}, Opt: row.opt,
		})
		if err != nil {
			return nil, err
		}
		grp := rep.Group(row.algo, gs, "congest", "sync")
		t.AddRow(row.label, grp.N, grp.M, grp.Messages.Mean,
			grp.Messages.Mean/float64(grp.M), grp.Rounds.Mean, grp.Success)
	}
	return t, nil
}

func (d *driver) e9Const() (*stats.Table, error) {
	t := stats.NewTable("E9 — Thm 4.4.(B): O(m) messages with success ≥ 1−ε",
		"epsilon", "n", "m", "msgs/m", "success", "target ≥")
	n := 256
	if d.quick {
		n = 96
	}
	gs := fmt.Sprintf("random:%d:%d", n, 4*n)
	for _, eps := range []float64{0.25, 0.1, 0.01} {
		rep, err := d.sweep(harness.Spec{
			Name:  fmt.Sprintf("e9-eps%v", eps),
			Algos: []string{"leastel-const"}, Graphs: []string{gs},
			Opt: core.Options{Epsilon: eps},
		})
		if err != nil {
			return nil, err
		}
		grp := rep.Group("leastel-const", gs, "congest", "sync")
		t.AddRow(eps, grp.N, grp.M, grp.Messages.Mean/float64(grp.M), grp.Success, 1-eps)
	}
	return t, nil
}

func (d *driver) e15Table1() (*stats.Table, error) {
	t := stats.NewTable("E15 — Table 1 head-to-head (random graph)",
		"algo", "paper row", "msgs mean", "msgs/m", "rounds mean", "success")
	n := 200
	if d.quick {
		n = 80
	}
	gs := fmt.Sprintf("random:%d:%d", n, 5*n)
	spec := harness.Spec{
		Name:     "e15-table1",
		Algos:    core.Names(),
		Graphs:   []string{gs},
		SmallIDs: true,
	}
	rep, err := d.sweep(spec)
	if err != nil {
		return nil, err
	}
	for _, algo := range spec.Algos {
		cspec := core.MustGet(algo)
		grp := rep.Group(algo, gs, "congest", "sync")
		t.AddRow(algo, cspec.Result, grp.Messages.Mean,
			grp.Messages.Mean/float64(grp.M), grp.Rounds.Mean, grp.Success)
	}
	return t, nil
}

// e16: the asynchronous scenario axis. ASYNC steps a node only on a
// delivery, so the message-driven rows (core.Bound.MessageDriven:
// leastel*, kingdom*, trivial) keep electing under every delay adversary.
// The others act on an empty inbox — flood's D-round wait, dfs budgets,
// lasvegas epochs, spanner-le's Baswana–Sen schedule, cluster's drip
// queue — and stall, mostly quiescing undecided: the synchronous/
// asynchronous split the paper's model section draws. A node has no
// clock there (sim.Context.Round is its own step count), so the four
// that count rounds never succeed, and spanner-le, whose schedule starts
// a round past its Start, sends nothing.
func (d *driver) e16Async() (*stats.Table, error) {
	t := stats.NewTable("E16 — asynchronous model: sync vs delay adversaries",
		"algo", "delay", "msgs mean", "ticks mean", "success")
	n := 128
	if d.quick {
		n = 48
	}
	gs := fmt.Sprintf("random:%d:%d", n, 4*n)
	delays := []string{"unit", "random:8", "fifo:8"}
	spec := harness.Spec{
		Name:     "e16-async",
		Algos:    core.Names(),
		Graphs:   []string{gs},
		Modes:    []string{"congest", "async"},
		Delays:   delays,
		SmallIDs: true,
	}
	rep, err := d.sweep(spec)
	if err != nil {
		return nil, err
	}
	for _, algo := range spec.Algos {
		sync := rep.Group(algo, gs, "congest", "sync")
		t.AddRow(algo, "sync", sync.Messages.Mean, sync.Rounds.Mean, sync.Success)
		for _, delay := range delays {
			grp := rep.Group(algo, gs, "async", "sync", delay)
			if grp == nil {
				return nil, fmt.Errorf("missing async group %s/%s", algo, delay)
			}
			t.AddRow(algo, delay, grp.Messages.Mean, grp.Rounds.Mean, grp.Success)
		}
	}
	return t, nil
}

// e17: the fault scenario axis. The paper's model is fault-free, so no
// algorithm is *designed* to survive the adversaries; the table measures
// which failure patterns each algorithm tolerates anyway. "success" is
// the paper's unique-leader predicate; "survival" relaxes it to the live
// nodes (crashed nodes are excused). Message-redundant floods survive
// drops, anything survives crashes of non-winners, and crash-recovery
// with kept state survives where reset state re-floods or stalls.
func (d *driver) e17Faults() (*stats.Table, error) {
	t := stats.NewTable("E17 — fault model: survival under crash / recovery / drop / churn",
		"algo", "fault", "msgs mean", "rounds mean", "success", "survival")
	n := 96
	if d.quick {
		n = 32
	}
	gs := fmt.Sprintf("random:%d:%d", n, 4*n)
	faultAxis := []string{"none", "crash:0.2", "crashrec:0.2:32", "drop:0.1", "churn:0.15:48"}
	spec := harness.Spec{
		Name:      "e17-faults",
		Algos:     []string{"leastel", "leastel-const", "flood", "cluster", "kingdom"},
		Graphs:    []string{gs},
		Faults:    faultAxis,
		MaxRounds: 4096,
		SmallIDs:  true,
	}
	rep, err := d.sweep(spec)
	if err != nil {
		return nil, err
	}
	for _, algo := range spec.Algos {
		for _, fault := range faultAxis {
			key := fault
			if fault == "none" {
				key = "" // the harness canonicalizes the fault-free cell
			}
			grp := rep.Group(algo, gs, "congest", "sync", "", key)
			if grp == nil {
				return nil, fmt.Errorf("missing fault group %s/%s", algo, fault)
			}
			survival := "-"
			if key != "" {
				survival = fmt.Sprintf("%.2f", grp.Survival)
			}
			t.AddRow(algo, fault, grp.Messages.Mean, grp.Rounds.Mean, grp.Success, survival)
		}
	}
	return t, nil
}
