package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
)

// recordSchema names the all-workloads document: one per (commit, host),
// the unit -compare works on and the replacement for the eight
// BENCH_*.json schemas.
const recordSchema = "ule-bench/v1"

type record struct {
	Schema       string           `json:"schema"`
	Commit       string           `json:"commit"`
	GoVersion    string           `json:"go_version"`
	NProc        int              `json:"nproc"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	LoadavgStart float64          `json:"loadavg_start"`
	Forced       bool             `json:"forced"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Sizes        sizes            `json:"sizes"`
	Workloads    []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Untraced holds the end-to-end runs, at seed, seed+1, ...; Traced the
	// one per-layer run, at seed.
	Untraced []runRecord `json:"untraced"`
	Traced   runRecord   `json:"traced"`
	// CountsAgree is the guard against a traced pass that simulated
	// something else than the untraced one it explains.
	CountsAgree bool `json:"counts_agree"`
}

type runRecord struct {
	result
	detail
}

// maxBaselineLoad is the one-minute load average above which a record is
// refused: with two CPUs, a load of one means half the machine was busy
// with something else before the first workload started.
const maxBaselineLoad = 1.0

// baselineGuard refuses to produce a record that would mislead: one from a
// host that was already busy, or one where the Go scheduler was given
// fewer (or more) threads than the host has CPUs. -force overrides it and
// is written into the record.
func baselineGuard(load float64, gomaxprocs, nproc int, force bool) error {
	switch {
	case force:
		return nil
	case load > maxBaselineLoad:
		return fmt.Errorf("1-min load average %.2f > %.1f: numbers from a busy host mislead (-force records anyway)", load, maxBaselineLoad)
	case gomaxprocs != nproc:
		return fmt.Errorf("GOMAXPROCS %d != nproc %d (-force records anyway)", gomaxprocs, nproc)
	}
	return nil
}

// runAll runs every workload in its own child process — fresh heap, own
// VmHWM — untraced then traced, and writes the record.
func runAll(root string, seed int64, seconds float64, runs int, out string, force bool) error {
	rec := record{
		Schema: recordSchema, Commit: gitCommit(root), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadavgStart: loadavg1(), Forced: force, Seed: seed, Seconds: seconds, Sizes: fullSizes,
	}
	if err := baselineGuard(rec.LoadavgStart, rec.GOMAXPROCS, rec.NProc, force); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, def := range workloadDefs {
		wr := workloadRecord{Name: def.Name, Why: def.Why}
		for r := 0; r <= runs; r++ {
			traced, s := r == runs, seed+int64(r)
			if traced {
				s = seed
			}
			fmt.Fprintf(os.Stderr, "ule-bench: %s seed %d traced %v\n", def.Name, s, traced)
			rr, err := runChild(exe, root, def.Name, s, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			bad += rr.Failed
			if traced {
				wr.Traced = *rr
			} else {
				wr.Untraced = append(wr.Untraced, *rr)
			}
		}
		wr.CountsAgree = reflect.DeepEqual(wr.Untraced[0].Counts, wr.Traced.Counts) &&
			reflect.DeepEqual(wr.Untraced[0].Hashes, wr.Traced.Hashes)
		if !wr.CountsAgree {
			bad++
			fmt.Fprintf(os.Stderr, "ule-bench: %s: traced and untraced passes disagree on simulated counts or output hashes\n", def.Name)
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err == nil && bad > 0 {
		err = fmt.Errorf("%d failed operations or count mismatches (see the record)", bad)
	}
	return err
}

// runChild runs one workload in a child process and parses the two JSON
// lines that end its output.
func runChild(exe, root, name string, seed int64, seconds float64, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed %d lines", len(lines))
	}
	var rr runRecord
	if err := json.Unmarshal(lines[len(lines)-2], &rr.detail); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rr.result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rr, nil
}

// gitCommit is best effort: a driver's checkout is not a git repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
