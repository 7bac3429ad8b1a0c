package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SchemaVersion identifies the JSON document layout emitted by
// NewJSONEmitter; see docs/SWEEP_SCHEMA.md. v3 added the fault axis:
// a "faults" spec field, per-trial/per-group "fault_model", per-trial
// crashes/recoveries/dropped/live_unique and per-group survival (all
// omitted on fault-free cells, so a fault-free v3 sweep differs from v2
// only in the schema string).
const SchemaVersion = "ule-sweep/v3"

// legacySchemaV2 is the pre-fault document layout; ParseDocument still
// accepts it (its records simply carry no fault_model).
const legacySchemaV2 = "ule-sweep/v2"

// legacySchemaV1 is the pre-async document layout; ParseDocument still
// accepts it (its records carry neither delay_model nor fault_model).
const legacySchemaV1 = "ule-sweep/v1"

// Emitter receives the sweep stream: Begin once, Trial once per trial in
// trial-index order, End once with the final report. Emitters are called
// from a single goroutine; output is deterministic for a given spec
// regardless of worker count.
type Emitter interface {
	Begin(spec Spec, total int) error
	Trial(tr TrialResult) error
	End(rep *Report) error
}

// NDJSONSchemaVersion identifies the newline-delimited streaming layout
// written by NewNDJSONEmitter: one JSON object per line, no enclosing
// document. The layout:
//
//	line 1    {"schema":"ule-sweep-ndjson/v1","spec":{...},"total_trials":N}
//	per trial one object, byte-identical to the trial objects of the
//	          ule-sweep/v3 JSON document (same appendTrialJSON encoder)
//	last line {"groups":[...],"total_trials":N,"errors":E}
//
// Every line is a single Write call, so an unbuffered sink (an HTTP
// response with per-write flushing, a pipe) observes complete records —
// this is the streaming format of the uled serving layer (docs/SERVICE.md).
const NDJSONSchemaVersion = "ule-sweep-ndjson/v1"

// csvHeader is the column layout of the CSV emitter.
var csvHeader = []string{
	"trial", "algo", "graph", "mode", "wake", "delay_model", "fault_model",
	"rep", "seed",
	"n", "m", "d", "rounds", "last_active", "messages", "bits",
	"leaders", "unique", "halted", "hit_round_cap",
	"crashes", "recoveries", "dropped", "live_unique", "err",
}

// textLayout is everything that tells the three text formats apart: how
// the document opens and closes around the trial rows, what stands
// between two rows, and which reflection-free appender (encode.go) writes
// a row. The framing of each format exists here and nowhere else.
type textLayout struct {
	// head opens the document from the marshalled spec and the trial
	// total; tail closes it from the marshalled report groups and the
	// counters. A nil tail is a format with no trailer, whose End never
	// looks at the report.
	head func(b, specJSON []byte, total int) []byte
	tail func(b, groupsJSON []byte, total, errors int) []byte
	// lead precedes the first row and sep every later one.
	lead, sep string
	row       func(b []byte, tr *TrialResult) []byte
	// lineWrites hands head, each row and tail to the sink as one Write
	// apiece, unbuffered, so a streaming sink observes complete lines.
	lineWrites bool
}

// jsonLayout is the ule-sweep/v3 document, one trial object per line:
//
//	{"schema":"ule-sweep/v3","spec":{...},"trials":[{...},...],"groups":[...],"total_trials":N,"errors":E}
var jsonLayout = textLayout{
	head: func(b, specJSON []byte, _ int) []byte {
		return fmt.Appendf(b, "{\"schema\":%q,\n\"spec\":%s,\n\"trials\":[", SchemaVersion, specJSON)
	},
	lead: "\n", sep: ",\n",
	row: appendTrialJSON,
	tail: func(b, groupsJSON []byte, total, errors int) []byte {
		return fmt.Appendf(b, "\n],\n\"groups\":%s,\n\"total_trials\":%d,\n\"errors\":%d}\n", groupsJSON, total, errors)
	},
}

// ndjsonLayout is the ule-sweep-ndjson/v1 stream (NDJSONSchemaVersion).
var ndjsonLayout = textLayout{
	head: func(b, specJSON []byte, total int) []byte {
		return fmt.Appendf(b, "{\"schema\":%q,\"spec\":%s,\"total_trials\":%d}\n", NDJSONSchemaVersion, specJSON, total)
	},
	row: func(b []byte, tr *TrialResult) []byte { return append(appendTrialJSON(b, tr), '\n') },
	tail: func(b, groupsJSON []byte, total, errors int) []byte {
		return fmt.Appendf(b, "{\"groups\":%s,\"total_trials\":%d,\"errors\":%d}\n", groupsJSON, total, errors)
	},
	lineWrites: true,
}

// csvLayout is the trials CSV: the csvHeader row, then one row per trial.
var csvLayout = textLayout{
	head: func(b, _ []byte, _ int) []byte {
		return append(append(b, strings.Join(csvHeader, ",")...), '\n')
	},
	row: appendTrialCSV,
}

// textEmitter streams one text document in the shape its layout gives.
// Trials are written as they arrive through the layout's append-based row
// encoder over a reusable buffer, so the per-trial cost is a few appends
// and one write — no encoding/json, no per-record allocation — while the
// bytes stay identical to what json.Marshal produced (pinned by
// encode_test.go).
type textEmitter struct {
	l    *textLayout
	w    io.Writer // a *bufio.Writer, or the sink itself when the layout writes by line
	rows int
	cur  TrialResult // Trial's argument, copied here so that handing it to row allocates nothing
	buf  []byte
}

func newTextEmitter(w io.Writer, l *textLayout) *textEmitter {
	if !l.lineWrites {
		w = bufio.NewWriterSize(w, 1<<16)
	}
	return &textEmitter{l: l, w: w}
}

// NewJSONEmitter returns an emitter writing the current SchemaVersion
// document to w.
func NewJSONEmitter(w io.Writer) Emitter { return newTextEmitter(w, &jsonLayout) }

// NewNDJSONEmitter returns an emitter streaming newline-delimited JSON to
// w (one header line, one line per trial, one trailer line — see
// NDJSONSchemaVersion), each line one Write. Trial lines are
// byte-identical to the trial objects inside the ule-sweep/v3 document,
// pinned by ndjson_test.go.
func NewNDJSONEmitter(w io.Writer) Emitter { return newTextEmitter(w, &ndjsonLayout) }

// NewCSVEmitter returns an emitter writing a trials CSV to w (header row
// first; no aggregate rows — groups belong to the JSON document).
func NewCSVEmitter(w io.Writer) Emitter { return newTextEmitter(w, &csvLayout) }

func (e *textEmitter) Begin(spec Spec, total int) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return e.begin(specJSON, total)
}

// begin and end take the spec echo and the groups already marshalled:
// ExportJSON has both verbatim from the binary stream.
func (e *textEmitter) begin(specJSON []byte, total int) error {
	return e.write(e.l.head(e.buf[:0], specJSON, total))
}

func (e *textEmitter) Trial(tr TrialResult) error {
	e.cur = tr
	return e.row(&e.cur)
}

// row writes one trial; tr must not be a caller's local, which the
// indirect call to the layout's appender would move to the heap.
func (e *textEmitter) row(tr *TrialResult) error {
	b := e.buf[:0]
	if e.rows == 0 {
		b = append(b, e.l.lead...)
	} else {
		b = append(b, e.l.sep...)
	}
	e.rows++
	return e.write(e.l.row(b, tr))
}

func (e *textEmitter) End(rep *Report) error {
	if e.l.tail == nil {
		return e.end(nil, 0, 0)
	}
	groupsJSON, err := json.Marshal(rep.Groups)
	if err != nil {
		return err
	}
	return e.end(groupsJSON, rep.Total, rep.Errors)
}

func (e *textEmitter) end(groupsJSON []byte, total, errors int) error {
	if e.l.tail != nil {
		if err := e.write(e.l.tail(e.buf[:0], groupsJSON, total, errors)); err != nil {
			return err
		}
	}
	if bw, ok := e.w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

func (e *textEmitter) write(b []byte) error {
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// Document is the parsed form of a ule-sweep/v3 (or legacy v2/v1) JSON
// file; tests and downstream tooling use it to consume sweep output.
type Document struct {
	Schema      string        `json:"schema"`
	Spec        Spec          `json:"spec"`
	Trials      []TrialResult `json:"trials"`
	Groups      []GroupStats  `json:"groups"`
	TotalTrials int           `json:"total_trials"`
	Errors      int           `json:"errors"`
}

// ParseDocument decodes and validates a ule-sweep/v3 document. Legacy
// ule-sweep/v2 and v1 documents are also accepted: their trials and
// groups predate the fault (and, for v1, the delay) axis and parse with
// the corresponding fields empty. It is readDocument collecting the
// trials, so it accepts exactly the documents DecodeTrials does.
func ParseDocument(data []byte) (*Document, error) {
	doc := new(Document)
	if err := readDocument(bytes.NewReader(data), doc, func(tr TrialResult) error {
		doc.Trials = append(doc.Trials, tr)
		return nil
	}); err != nil {
		return nil, err
	}
	return doc, nil
}

// DecodeTrials streams the trial records of a ule-sweep JSON document
// (v3 or legacy v2/v1) from r, calling fn once per trial in document
// order. Unlike ParseDocument it never materializes the trials array, so
// memory stays constant in document size — the consumption path for
// million-trial documents. Any fn error aborts the decode and is
// returned verbatim.
func DecodeTrials(r io.Reader, fn func(TrialResult) error) error {
	return readDocument(r, new(Document), fn)
}

// readDocument is the one reader of a ule-sweep JSON document: it decodes
// the document from r into doc, handing each trial to fn instead of
// storing it. The schema field must precede the trials array (every
// document the emitters produce has it first) and is validated before the
// first callback; the trial count must match total_trials, and nothing
// but white space may follow the document.
func readDocument(r io.Reader, doc *Document, fn func(TrialResult) error) error {
	invalid := func(err error) error { return fmt.Errorf("harness: invalid sweep document: %w", err) }
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return invalid(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("harness: invalid sweep document: not a JSON object")
	}
	trials := 0
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return invalid(err)
		}
		var dst any
		switch keyTok {
		case "schema":
			dst = &doc.Schema
		case "spec":
			dst = &doc.Spec
		case "groups":
			dst = &doc.Groups
		case "total_trials":
			dst = &doc.TotalTrials
		case "errors":
			dst = &doc.Errors
		case "trials":
			if doc.Schema == "" {
				return fmt.Errorf("harness: document schema must precede trials for streaming decode")
			}
			if tok, err := dec.Token(); err != nil {
				return invalid(err)
			} else if d, ok := tok.(json.Delim); !ok || d != '[' {
				return fmt.Errorf("harness: invalid sweep document: trials is not an array")
			}
			for ; dec.More(); trials++ {
				var tr TrialResult
				if err := dec.Decode(&tr); err != nil {
					return fmt.Errorf("harness: invalid trial record: %w", err)
				}
				if err := fn(tr); err != nil {
					return err
				}
			}
			if _, err := dec.Token(); err != nil { // closing ']'
				return invalid(err)
			}
			continue
		default:
			dst = new(json.RawMessage) // skipped without being kept
		}
		if err := dec.Decode(dst); err != nil {
			return invalid(err)
		}
		if keyTok == "schema" && doc.Schema != SchemaVersion && doc.Schema != legacySchemaV2 && doc.Schema != legacySchemaV1 {
			return fmt.Errorf("harness: unknown schema %q (want %q)", doc.Schema, SchemaVersion)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return invalid(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("harness: invalid sweep document: data after the document")
	}
	if doc.Schema == "" {
		return fmt.Errorf("harness: document carries no schema field")
	}
	if trials != doc.TotalTrials {
		return fmt.Errorf("harness: document lists %d trials but declares %d", trials, doc.TotalTrials)
	}
	return nil
}
