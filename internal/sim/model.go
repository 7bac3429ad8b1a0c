// The execution-model spec: one parsed value carrying the communication
// mode, the asynchronous delay adversary and the fault adversary, with one
// grammar. Config.Model holds it and every layer above the simulator hands
// it down unchanged, so the constraints between the three axes are
// defined — and documented — exactly here. The CLIs, uled and
// election.Params build it from a string through ParseModel; harness.Spec
// keeps the axes apart and builds it from ParseMode, ParseDelay and
// ParseFaults, whose grammars ParseModel shares term for term.
package sim

import (
	"fmt"
	"strings"
)

// ModelSpec is a parsed execution model: which timing/communication mode
// a run uses, which delay schedule the asynchronous adversary plays, and
// which fault schedule the fault adversary plays. It is the only
// representation of the mode/delay/fault axes at every layer.
//
// Axis constraints (enforced by ParseModel for spec strings and by
// Runner.RunInto for every run):
//
//   - Delay requires Mode == ASYNC — the synchronous modes deliver every
//     message in exactly one round, so a delay schedule is meaningless
//     there. nil Delay in ASYNC mode means unit delays.
//   - Faults compose with every mode. nil means fault-free, and the
//     fault-free path is byte-identical to a run without the fault
//     subsystem.
//   - The zero Mode resolves to CONGEST; a Mode outside the three
//     defined ones is rejected with ErrConfig.
type ModelSpec struct {
	// Mode is the communication/timing model (CONGEST, LOCAL, ASYNC).
	Mode Mode
	// Delay is the asynchronous adversary's message-delay schedule
	// (ASYNC only; nil = unit delays).
	Delay DelaySchedule
	// Faults is the fault adversary's schedule (nil = fault-free).
	Faults *FaultSchedule
}

// String returns the canonical spec string: the mode, then a non-unit
// delay term, then the fault terms, joined by "+". ParseModel(m.String())
// reproduces the model.
func (m ModelSpec) String() string {
	mode := m.Mode
	if mode == 0 {
		mode = CONGEST
	}
	s := mode.String()
	if m.Delay != nil && m.Delay.Name() != "unit" {
		s += "+" + m.Delay.Name()
	}
	if m.Faults != nil {
		s += "+" + m.Faults.Name()
	}
	return s
}

// ParseModel resolves an execution-model spec string: "+"-separated
// terms, each either a mode ("congest", "local", "async", in any case, as
// ParseMode reads them), a delay
// schedule ("unit", "random:B", "fifo:B" — async only), or a fault term
// (see ParseFaults: "crash:P[:W]", "crash@T:u1,u2,...",
// "crashrec:P:D[:keep]", "drop:P", "churn:P:K"; "none" is accepted and
// ignored). Term order is free; at most one mode and one delay term are
// allowed, and fault terms combine under ParseFaults's rules. The empty
// spec is CONGEST, fault-free.
//
//	"local"                        LOCAL, fault-free
//	"async+random:4"               ASYNC under the bounded-random adversary
//	"crash:0.2"                    CONGEST with 20% crash-stop failures
//	"async+fifo:8+crashrec:0.1:32" everything at once
func ParseModel(spec string) (ModelSpec, error) {
	var m ModelSpec
	if spec == "" {
		m.Mode = CONGEST
		return m, nil
	}
	var faultTerms []string
	for _, term := range strings.Split(spec, "+") {
		kind, _, _ := strings.Cut(term, ":")
		if lower := strings.ToLower(kind); lower == "congest" || lower == "local" || lower == "async" {
			kind = lower // a mode term, matched the way ParseMode matches it
		}
		switch kind {
		case "congest", "local", "async":
			if m.Mode != 0 {
				return ModelSpec{}, fmt.Errorf("sim: model %q has two mode terms", spec)
			}
			m.Mode, _ = ParseMode(term)
		case "unit", "random", "fifo":
			if m.Delay != nil {
				return ModelSpec{}, fmt.Errorf("sim: model %q has two delay terms", spec)
			}
			ds, err := ParseDelay(term)
			if err != nil {
				return ModelSpec{}, err
			}
			m.Delay = ds
		case "none":
			// A fault-free fault term: harness sweep axes pass it through.
		default:
			faultTerms = append(faultTerms, term)
		}
	}
	if len(faultTerms) > 0 {
		fs, err := ParseFaults(strings.Join(faultTerms, "+"))
		if err != nil {
			return ModelSpec{}, err
		}
		m.Faults = fs
	}
	if m.Mode == 0 {
		m.Mode = CONGEST
	}
	if m.Delay != nil && m.Mode != ASYNC {
		return ModelSpec{}, fmt.Errorf("sim: model %q pairs a delay schedule with the synchronous %s mode", spec, m.Mode)
	}
	return m, nil
}
