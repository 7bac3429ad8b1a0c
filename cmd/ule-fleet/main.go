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
//	ule-fleet -worker …              # internal: a worker process (leases on stdin)
//
// On quarantined units the merged file is withheld and the exit status is
// nonzero; -report writes the machine-readable outcome (retries, fault
// counters, lease times, the idle tail and the exact missing trial
// ranges) either way, and -v prints the run's lifecycle to stderr as
// NDJSON, one event per line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
		verbose   = fs.Bool("v", false, "print the lifecycle log (NDJSON) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *specPath == "" || *out == "" {
		return fmt.Errorf("need -spec and -out")
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

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
