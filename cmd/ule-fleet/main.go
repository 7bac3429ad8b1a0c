// Command ule-fleet runs a sweep across a fleet of worker processes and
// merges their shards into one ule-sweepbin document that is
// byte-identical to a single-process run — surviving worker crashes,
// hangs and shard corruption along the way (internal/fleet; protocol in
// docs/DISTRIBUTED.md).
//
// Usage:
//
//	ule-fleet -spec sweep.json -out sweep.ulsb -workers 4
//	ule-fleet -spec sweep.json -out sweep.ulsb -chaos kill:0.3,stall:0.2 -chaos-seed 7
//	ule-fleet -gate                  # CI chaos smoke (make fleet-chaos)
//	ule-fleet -worker …              # internal: a worker process (leases on stdin)
//
// On quarantined units the merged file is withheld and the exit status is
// nonzero; -report writes the machine-readable outcome (retries, fault
// counters, lease times, the idle tail and the exact missing trial
// ranges) either way, and -v prints the run's lifecycle to stderr as
// NDJSON, one event per line.
//
// -gate runs a small sweep at 1, 2 and 4 workers, and once more in 24
// leases on 2 workers, with two scheduled worker kills each, and fails
// unless every merged document is byte-identical to the in-process
// reference.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ule/internal/fleet"
	"ule/internal/harness"
)

func main() {
	// The worker mode must not see the coordinator flag set: dispatch on
	// the first argument before any parsing.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(fleet.RunWorker(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ule-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ule-fleet", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "sweep spec JSON file")
		out       = fs.String("out", "", "merged ule-sweepbin output path")
		jsonOut   = fs.String("json", "", "also export merged sweep JSON to this path")
		report    = fs.String("report", "", "write the machine-readable run result (JSON) to this path")
		workers   = fs.Int("workers", 2, "concurrent worker processes")
		unit      = fs.Int("unit-trials", 0, "trials per work unit (0 = auto)")
		ckEvery   = fs.Int("checkpoint-every", 0, "shard checkpoint cadence (0 = default)")
		heartbeat = fs.Duration("heartbeat", 10*time.Second, "heartbeat deadline before a lease is revoked (1s or more)")
		maxAtt    = fs.Int("max-attempts", 4, "attempts before a unit is quarantined")
		dir       = fs.String("dir", "", "shard directory, created if missing (default: temp dir)")
		chaos     = fs.String("chaos", "", "fault injection, e.g. kill:0.3,stall:0.2,corrupt:0.1")
		chaosSeed = fs.Uint64("chaos-seed", 1, "chaos schedule seed")
		chaosMax  = fs.Int("chaos-max", 0, "cap on injected faults (0 = none)")
		gate      = fs.Bool("gate", false, "run the CI chaos gate and exit")
		verbose   = fs.Bool("v", false, "print the lifecycle log (NDJSON) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *gate {
		return runGate(*specPath, *verbose)
	}

	if *specPath == "" || *out == "" {
		return fmt.Errorf("need -spec and -out (or -gate)")
	}
	spec, err := harness.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	plan, err := parseChaos(*chaos, *chaosSeed, *chaosMax)
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Spec:             spec,
		Workers:          *workers,
		UnitTrials:       *unit,
		CheckpointEvery:  *ckEvery,
		HeartbeatTimeout: *heartbeat,
		MaxAttempts:      *maxAtt,
		Dir:              *dir,
		Out:              *out,
		JSONOut:          *jsonOut,
		Chaos:            plan,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	res, runErr := fleet.Run(cfg)
	if res != nil {
		if *report != "" {
			if err := writeJSONFile(*report, res); err != nil {
				return err
			}
		}
		fmt.Printf("fleet: %d trials in %d units, %d workers: retries=%d reassignments=%d kills=%d stalls=%d corruptions=%d (%d ms; lease median %.0f ms, max %.0f ms, idle tail %.0f ms)\n",
			res.Total, res.Units, res.Workers, res.Retries, res.Reassignments,
			res.Kills, res.Stalls, res.Corruptions, res.ElapsedMS,
			res.LeaseMSMedian, res.LeaseMSMax, res.IdleTailMS)
		if len(res.Incomplete) > 0 {
			mr, _ := json.Marshal(res.Incomplete)
			fmt.Printf("fleet: INCOMPLETE, missing ranges: %s\n", mr)
		}
	}
	return runErr
}

// parseChaos parses "kill:P,stall:P,corrupt:P" into a ChaosPlan.
func parseChaos(s string, seed uint64, max int) (*fleet.ChaosPlan, error) {
	if s == "" {
		return nil, nil
	}
	plan := &fleet.ChaosPlan{Seed: seed, MaxActions: max}
	for _, part := range strings.Split(s, ",") {
		kind, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("chaos %q: want kind:prob", part)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("chaos %q: bad probability %q", part, val)
		}
		switch kind {
		case "kill":
			plan.Kill = p
		case "stall":
			plan.Stall = p
		case "corrupt":
			plan.Corrupt = p
		default:
			return nil, fmt.Errorf("chaos %q: unknown fault kind (kill|stall|corrupt)", part)
		}
	}
	if plan.Kill+plan.Stall+plan.Corrupt > 1 {
		return nil, fmt.Errorf("chaos probabilities sum to more than 1")
	}
	return plan, nil
}

// gateSpec is the chaos-gate sweep: 96 trials across algorithms, graph
// families, execution models and fault schedules — big enough that every
// worker holds several units, small enough for CI.
func gateSpec() harness.Spec {
	return harness.Spec{
		Name:     "fleet-gate",
		Algos:    []string{"leastel", "flood"},
		Graphs:   []string{"ring:16", "random:24:60"},
		Modes:    []string{"congest", "async"},
		Faults:   []string{"", "crash:0.2"},
		Trials:   6,
		Seed:     5,
		SmallIDs: true,
	}
}

// runGate is the chaos gate: the gate sweep through worker processes at 1,
// 2 and 4 workers in units of 8 trials, then in 24 leases of 4 trials on 2
// workers (each process serves many leases, and the ones started after a
// kill serve the rest), with two scheduled worker kills each, every merged
// binary required byte-identical to one in-process run.
func runGate(specPath string, verbose bool) error {
	spec := gateSpec()
	if specPath != "" {
		s, err := harness.LoadSpec(specPath)
		if err != nil {
			return err
		}
		spec = s
	}
	const cadence = 4

	var refBuf bytes.Buffer
	opt := harness.BinaryOptions{CheckpointEvery: cadence}
	if _, err := harness.Run(spec, harness.RunConfig{
		Emitters: []harness.Emitter{harness.NewBinaryEmitter(&refBuf, opt)},
	}); err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "ule-fleet-gate-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, leg := range []struct{ workers, unit int }{{1, 8}, {2, 8}, {4, 8}, {2, 4}} {
		workers := leg.workers
		dir := filepath.Join(tmp, fmt.Sprintf("%d-%d", workers, leg.unit))
		cfg := fleet.Config{
			Spec:             spec,
			Workers:          workers,
			UnitTrials:       leg.unit,
			CheckpointEvery:  cadence,
			HeartbeatTimeout: 5 * time.Second,
			Dir:              dir,
			Out:              filepath.Join(dir, "merged.ulsb"),
			Chaos:            &fleet.ChaosPlan{Seed: 42, Kill: 1, MaxActions: 2},
		}
		if verbose {
			cfg.Log = os.Stderr
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("gate workers=%d: %w", workers, err)
		}
		got, err := os.ReadFile(cfg.Out)
		if err != nil {
			return err
		}
		identical := bytes.Equal(got, refBuf.Bytes())
		fmt.Printf("fleet kill     workers=%d leases=%2d: %4d ms, retries=%d reassignments=%d kills=%d stalls=%d corruptions=%d byte_identical=%v\n",
			workers, res.Units, res.ElapsedMS, res.Retries, res.Reassignments,
			res.Kills, res.Stalls, res.Corruptions, identical)
		if !identical {
			return fmt.Errorf("gate at %d workers, %d leases: merged output NOT byte-identical to single-process run", workers, res.Units)
		}
	}
	fmt.Println("fleet: chaos gate OK (byte-identical at every worker count and unit size)")
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
