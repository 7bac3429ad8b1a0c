package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return &rec, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := loadRecord(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return err
	}
	if bad := compareRecords(os.Stdout, a, b); bad > 0 {
		return fmt.Errorf("%d rows regressed or differ", bad)
	}
	return nil
}

// Verdicts of one (metric, workload) row.
const (
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict applies a metric's bound to the runs of a baseline (a) and a
// candidate (b). The candidate regressed when its median is worse than
// the baseline's by more than the bound. When either side's own runs
// spread wider than the bound the row cannot carry a verdict either way
// and is unresolved — unless every candidate run beats every baseline run.
func verdict(d metricDef, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread := max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > d.Bound && !allBetter(d, a, b):
		return unresolved, worse, spread
	case worse > d.Bound:
		return regressed, worse, spread
	}
	return unchanged, worse, spread
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareRecords prints one row per (end-to-end metric, workload), then
// failed_frac and the exact counts, and returns how many rows regressed
// or differ.
func compareRecords(w io.Writer, a, b *record) int {
	fmt.Fprintf(w, "baseline  %s  nproc %d GOMAXPROCS %d load %.2f forced %v\n", a.Commit, a.NProc, a.GOMAXPROCS, a.LoadavgStart, a.Forced)
	fmt.Fprintf(w, "candidate %s  nproc %d GOMAXPROCS %d load %.2f forced %v\n", b.Commit, b.NProc, b.GOMAXPROCS, b.LoadavgStart, b.Forced)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	bad := 0
	byName := map[string]workloadRecord{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the candidate\n", wa.Name)
			bad++
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := values(wa.Untraced, d.Name), values(wb.Untraced, d.Name)
			v, worse, spread := verdict(d, va, vb)
			if v == regressed {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name, median(va), median(vb), worse*100, spread*100, d.Bound*100, v)
		}
		fa, fb := failedFrac(wa), failedFrac(wb)
		v := unchanged
		if fb > fa {
			v = regressed
			bad++
		}
		fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %8s %8s %6s  %s\n", wa.Name, "failed_frac", fa, fb, "", "", "any", v)

		// Simulated counts, output sizes and hashes are exact: the same
		// seed and sizes must give the same execution on both commits.
		if a.Seed == b.Seed && a.Sizes == b.Sizes {
			ua, ub := wa.Untraced[0], wb.Untraced[0]
			v := "identical"
			if !reflect.DeepEqual(ua.Counts, ub.Counts) || !reflect.DeepEqual(ua.Hashes, ub.Hashes) || !wa.CountsAgree || !wb.CountsAgree {
				v = "differs"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %8s %6s  %s\n", wa.Name, "counts+hashes", "", "", "", "", "exact", v)
		}
	}
	return bad
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedFrac is failed ÷ attempted over every run of the workload, traced
// one included.
func failedFrac(w workloadRecord) float64 {
	failed, attempted := w.Traced.Failed, w.Traced.Attempted
	for _, r := range w.Untraced {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
