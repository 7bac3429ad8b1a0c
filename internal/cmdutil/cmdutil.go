// Package cmdutil holds the small helpers shared by the command-line
// front ends (cmd/ule, cmd/ule-experiments, cmd/uled-load) and the fleet
// coordinator: execution-model composition from the -mode/-delay/-faults
// flag split, sweep-spec loading, the CLI axis overrides and the retry
// Backoff. Each helper used to be copied between the commands; this
// package is the single home.
package cmdutil

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ule/internal/harness"
	"ule/internal/sim"
)

// ResolveModel composes the execution-model flag set into one validated
// sim.ModelSpec. model ("async+random:4+crash:0.2", ...) wins when
// non-empty; otherwise the mode/delay flags are folded into the same spec
// grammar (a delay term is appended when set). faults appends the fault
// adversary either way.
func ResolveModel(model, mode, delay, faults string) (sim.ModelSpec, error) {
	spec := model
	if spec == "" {
		m, err := sim.ParseMode(mode)
		if err != nil {
			return sim.ModelSpec{}, err
		}
		spec = m.String()
		if delay != "" {
			spec += "+" + delay
		}
	}
	if faults != "" {
		spec += "+" + faults
	}
	return sim.ParseModel(spec)
}

// LoadSpec reads a harness sweep spec: the literal "builtin:smoke" or a
// JSON file path (ule-sweep/v3 spec schema, docs/SWEEP_SCHEMA.md).
func LoadSpec(arg string) (harness.Spec, error) {
	if arg == "builtin:smoke" {
		return harness.Smoke(), nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return harness.Spec{}, err
	}
	var spec harness.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return harness.Spec{}, fmt.Errorf("sweep spec %s: %w", arg, err)
	}
	return spec, nil
}

// SpecOverrides carries the CLI axis overrides applied on top of a loaded
// sweep spec, so one spec file serves the synchronous, asynchronous and
// faulty scenario space. Zero values leave the spec untouched.
type SpecOverrides struct {
	// Modes, Delays and Faults are comma-separated axis replacements.
	Modes, Delays, Faults string
	// DiameterEstimate switches D-dependent cells to graph.DiameterEstimate.
	DiameterEstimate bool
	// Shards overrides the engine shard count (0 keeps the spec value).
	Shards int
}

// Apply rewrites spec in place with the non-zero overrides.
func (o SpecOverrides) Apply(spec *harness.Spec) {
	if o.Modes != "" {
		spec.Modes = strings.Split(o.Modes, ",")
	}
	if o.Delays != "" {
		spec.Delays = strings.Split(o.Delays, ",")
	}
	if o.Faults != "" {
		spec.Faults = strings.Split(o.Faults, ",")
	}
	if o.DiameterEstimate {
		spec.DiameterEstimate = true
	}
	if o.Shards != 0 {
		spec.Shards = o.Shards
	}
}
