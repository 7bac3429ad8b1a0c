// Command ule-bench is the repository's one benchmark: five workloads that
// between them put every layer — graph → sim → core → harness →
// serve/fleet — on the measured path, each printing the same end-to-end
// metrics untraced and the same per-layer metrics traced. README.md in
// this directory is the dictionary; BENCHMARK.json at the repository root
// is the contract a driver runs it by.
//
// Usage (from the repository root):
//
//	go run ./cmd/ule-bench --workload elect-dense --seed 11 --seconds 10 --trace 0
//	go run ./cmd/ule-bench -out record.json          # all five, both passes
//	go run ./cmd/ule-bench -compare a.json b.json    # apply the bounds
//	go run ./cmd/ule-bench -list
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the line before it is the
// run's detail (exact simulated counts, output hashes, sample count).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ule-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ule-bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and print its result line (see -list); empty runs all five, both passes")
		seed         = fs.Int64("seed", 11, "workload seed: every input is generated from it")
		seconds      = fs.Float64("seconds", runSeconds, "measured window per run")
		trace        = fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
		traceOut     = fs.String("trace-out", "", "with -workload and -trace 1: write the spans to this file when the run ends")
		list         = fs.Bool("list", false, "print workload and metric names with units, and exit")
		compare      = fs.Bool("compare", false, "compare two records: ule-bench -compare a.json b.json")
		out          = fs.String("out", "", "all-workloads mode: write the ule-bench/v1 record here (default stdout)")
		runs         = fs.Int("runs", 1, "all-workloads mode: untraced runs per workload, at seed, seed+1, ...")
		force        = fs.Bool("force", false, "write a record even on a loaded host or with GOMAXPROCS != nproc (recorded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printList()
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two record files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace is 0 or 1")
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *workloadName == "" {
		return runAll(root, *seed, *seconds, *runs, *out, *force)
	}
	c := &runCtx{
		name: *workloadName, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sz: fullSizes, root: root,
	}
	res, det, err := runOne(c)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := c.tr.writeFile(*traceOut); err != nil {
			return err
		}
	}
	printResult(res, det)
	return nil
}

// repoRoot is the working directory, which must be the root of a checkout:
// the benchmark builds uled and ule-fleet from source there.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(data), "module ule\n") {
		return "", fmt.Errorf("run from the repository root (no go.mod of module ule in %s)", wd)
	}
	return wd, nil
}

// printResult prints every metric by name with its unit, then the detail
// line, then the contract's result line.
func printResult(res *result, det *detail) {
	defs := endToEndDefs
	if det.Traced {
		defs = perLayerDefs
	}
	fmt.Printf("# %s seed=%d seconds=%g traced=%v attempted=%d failed=%d\n",
		det.Workload, det.Seed, det.Seconds, det.Traced, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-44s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if !det.Traced {
		fmt.Printf("# host ran at %.3f of the reference cost per instruction; as read on its own clock:\n", det.HostFactor)
		for _, d := range defs {
			fmt.Printf("#   %-40s %16.6g %s\n", d.Name, det.Raw[d.Name], d.Unit)
		}
	}
	for _, n := range det.Notes {
		fmt.Println("# failed:", n)
	}
	line, _ := json.Marshal(det)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (--trace 0), bound = share of the median it may worsen by:")
	for _, d := range endToEndDefs {
		fmt.Printf("  %-44s %-6s %s is better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, d := range perLayerDefs {
		fmt.Printf("  %-44s %-6s %s is better\n", d.Name, d.Unit, d.Better)
	}
}
