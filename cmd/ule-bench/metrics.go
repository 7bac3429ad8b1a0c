package main

// The benchmark's dictionary: every workload and every metric it can
// print, in one place. BENCHMARK.json at the repository root states the
// same names, units, directions and bounds for the driver; a test keeps
// the two equal. README.md in this directory defines each entry.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is the measured window of one run (BENCHMARK.json
// run_seconds, and the default of -seconds).
const runSeconds = 10

var workloadDefs = []workloadDef{
	{"elect-dense", "every node steps every round and millions of messages move per election, so only sim's deliver/step loop and core's protocol logic are on the path"},
	{"elect-sparse", "one node awake and one to four deliveries per tick, so sim's per-tick cost (wheel, timers, quiescence, barrier) dominates its per-delivery cost"},
	{"sweep-small", "16-24-node graphs make the per-trial fixed cost and harness's reorder/encode/aggregate/fsync pipeline dominate; engine work on big graphs shows nothing here"},
	{"fleet-small", "the same sweep through exec'd ule-fleet workers adds spawn, heartbeats, shard fsync, validation and merge; the difference to sweep-small is fleet's own cost"},
	{"serve-mix", "the only workload with HTTP, slot admission and the per-slot graph/Prepared caches on the path, with a working set both inside and beyond those caches"},
}

// endToEndDefs are printed by every workload with --trace 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"elections_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_election", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// The five election cells of elect-dense (first three) and elect-sparse.
var cellNames = []string{
	"leastel-torus128", "flood-random64k", "kingdom-torus96",
	"leastel-ring32k-async", "dfs-torus64",
}

// perLayerDefs are printed by every workload with --trace 1. A metric
// reads 0 on a workload whose traced pass does not exercise it; README.md
// lists which workload measures which.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// Self time per layer over the traced operations of the window.
		lower("graph.self_ms", "ms"), lower("sim.self_ms", "ms"), lower("core.self_ms", "ms"),
		lower("harness.self_ms", "ms"), lower("serve.self_ms", "ms"), lower("fleet.self_ms", "ms"),
		lower("bench.self_ms", "ms"),

		lower("graph.build_ms", "ms"), lower("graph.diameter_ms", "ms"), lower("graph.build_allocs", "count"),

		lower("sim.prepare_ms", "ms"), lower("sim.deliveries", "count"), lower("sim.ticks", "count"),
		lower("sim.floor_ns_per_delivery", "ns"), lower("sim.floor_ns_per_tick", "ns"),
		lower("sim.allocs_per_run", "count"), lower("sim.bytes_per_run", "B"),
	}
	for _, c := range cellNames {
		defs = append(defs, lower("core.run_ms."+c, "ms"))
	}
	for _, c := range cellNames[:3] {
		defs = append(defs, lower("core.ns_per_delivery."+c, "ns"))
	}
	for _, c := range cellNames[3:] {
		defs = append(defs, lower("core.ns_per_tick."+c, "ns"))
	}
	defs = append(defs,
		lower("core.cold_over_warm", "ratio"), lower("core.config_us", "us"), higher("core.correct_frac", "ratio"),

		lower("harness.validate_ms", "ms"),
		higher("harness.sim_only_trials_per_s.w1", "1/s"), higher("harness.sim_only_trials_per_s.w2", "1/s"),
		higher("harness.scale_eff", "ratio"),
		lower("harness.emit_ns_per_trial.bin", "ns"), lower("harness.emit_ns_per_trial.json", "ns"),
		lower("harness.emit_ns_per_trial.ndjson", "ns"), lower("harness.emit_ns_per_trial.csv", "ns"),
		lower("harness.bytes_per_trial.bin", "B"), lower("harness.bytes_per_trial.json", "B"),
		lower("harness.export_json_ms", "ms"), lower("harness.decode_ns_per_trial", "ns"),
		lower("harness.merge_ms", "ms"), lower("harness.allocs_per_trial", "count"),

		lower("serve.run_election_us_p50", "us"), lower("serve.overhead_us", "us"),
		lower("serve.http_overhead_us", "us"), lower("serve.cold_election_ms_p50", "ms"),
		higher("serve.graph_hit_ratio", "ratio"), higher("serve.prepared_hit_ratio", "ratio"),
		lower("serve.sweep_ms_p50", "ms"), lower("serve.refused", "count"), lower("serve.goroutines_delta", "count"),

		lower("fleet.overhead_ratio", "ratio"), lower("fleet.spawn_ms", "ms"), lower("fleet.units", "count"),
		lower("fleet.retries", "count"), lower("fleet.reassignments", "count"),
		lower("fleet.worker_cpu_s", "s"), lower("fleet.recovery_ms_per_kill", "ms"),

		lower("bench.trace_overhead_frac", "ratio"), lower("bench.host_factor", "ratio"),
		higher("bench.latency_samples", "count"),
		higher("bench.resolved_percentile", "%"), lower("bench.loadavg_start", "load"),
	)
	return defs
}
