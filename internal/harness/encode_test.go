package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// encodeTrialCases is the field-combination battery shared by the JSON
// and CSV golden tests: zero values, every omitempty path off and on,
// fault cells, error trials, negative seeds, huge counters, and error
// strings that stress the escapers.
func encodeTrialCases() []TrialResult {
	base := TrialResult{
		Trial: Trial{
			Index: 3, Algo: "leastel", Graph: "ring:24", Mode: "congest",
			Wake: "sync", Rep: 2, Seed: 12345,
		},
		N: 24, M: 24,
		Outcome: Outcome{
			Rounds: 17, LastActive: 15,
			Messages: 812, Bits: 51968, Leaders: 1, Unique: true, Halted: true,
		},
	}
	cases := []TrialResult{
		{},
		base,
	}
	v := base
	v.Delay = "random:4"
	v.Mode = "async"
	cases = append(cases, v)
	v = base
	v.Fault = "crash:0.2"
	v.Crashes = 4
	v.Recoveries = 0
	v.Dropped = 19
	v.LiveUnique = true
	cases = append(cases, v)
	v = base
	v.Fault = "crashrec:0.1:32:keep"
	v.Crashes = 0
	v.Recoveries = 7
	v.LiveUnique = false
	cases = append(cases, v)
	v = base
	v.D = 12
	v.HitRoundCap = true
	v.Unique = false
	v.Halted = false
	cases = append(cases, v)
	v = base
	v.Seed = -9007199254740993
	v.Messages = 1<<62 + 7
	v.Bits = 1<<60 + 3
	v.Dropped = 1 << 59
	cases = append(cases, v)
	for _, errStr := range escapeStrings() {
		v = base
		v.Err = errStr
		cases = append(cases, v)
	}
	return cases
}

// escapeStrings is the escaper battery: quotes, backslashes, commas,
// control characters, HTML-escaped runes, multi-byte UTF-8, invalid
// UTF-8, and the JS line separators.
func escapeStrings() []string {
	return []string{
		"plain error",
		`quote " inside`,
		`backslash \ inside`,
		"comma, semicolon; pipe|",
		"newline\nand\ttab\rand\bbell\fform",
		"control \x00 \x1f chars",
		"html <tag> & entity",
		"unicode é ☃ 漢字",
		"invalid utf8 \xff\xfe bytes",
		"line sep \u2028 para sep \u2029",
		"\x7f del",
		strings.Repeat("long ", 100),
	}
}

// TestAppendJSONStringMatchesStdlib pins the hand-rolled string escaper
// against encoding/json (default HTML escaping) byte for byte.
func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	cases := escapeStrings()
	cases = append(cases, "", `""`, "\\", "\u2027", "\ufffd")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		cases = append(cases, string(b)) // mostly invalid UTF-8
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := appendJSONString(nil, s)
		if string(got) != string(want) {
			t.Errorf("appendJSONString(%q):\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestAppendTrialJSONMatchesStdlib pins the reflection-free record
// encoder against json.Marshal across the field battery — the byte-level
// contract that keeps emitted documents identical to every pre-existing
// golden hash and determinism matrix.
func TestAppendTrialJSONMatchesStdlib(t *testing.T) {
	for i, tr := range encodeTrialCases() {
		want, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("case %d: json.Marshal: %v", i, err)
		}
		got := appendTrialJSON(nil, &tr)
		if string(got) != string(want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// legacyCSVRow reconstructs the pre-PR CSV row (strconv per cell,
// strconv.Quote escaping) for the byte-identity pin on quote-free rows.
func legacyCSVRow(tr TrialResult) string {
	esc := tr.Err
	if esc != "" {
		esc = strconv.Quote(esc)
	}
	cells := []string{
		strconv.Itoa(tr.Index), tr.Algo, tr.Graph, tr.Mode, tr.Wake, tr.Delay, tr.Fault,
		strconv.Itoa(tr.Rep), strconv.FormatInt(tr.Seed, 10),
		strconv.Itoa(tr.N), strconv.Itoa(tr.M), strconv.Itoa(tr.D),
		strconv.Itoa(tr.Rounds), strconv.Itoa(tr.LastActive),
		strconv.FormatInt(tr.Messages, 10), strconv.FormatInt(tr.Bits, 10),
		strconv.Itoa(tr.Leaders), strconv.FormatBool(tr.Unique),
		strconv.FormatBool(tr.Halted), strconv.FormatBool(tr.HitRoundCap),
		strconv.Itoa(tr.Crashes), strconv.Itoa(tr.Recoveries),
		strconv.FormatInt(tr.Dropped, 10), strconv.FormatBool(tr.LiveUnique),
		esc,
	}
	return strings.Join(cells, ",") + "\n"
}

// TestAppendTrialCSVMatchesLegacy pins the append-based CSV row against
// the old strconv construction for every case whose error string is free
// of characters the old escaper mishandled (the determinism matrices all
// are); rows with quotes/backslashes deliberately diverge — that is the
// RFC 4180 fix, covered below.
func TestAppendTrialCSVMatchesLegacy(t *testing.T) {
	for i, tr := range encodeTrialCases() {
		if !isPlainASCII(tr.Err) {
			continue
		}
		want := legacyCSVRow(tr)
		got := string(appendTrialCSV(nil, &tr))
		if got != want {
			t.Errorf("case %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// isPlainASCII reports whether s is printable ASCII free of the quote and
// backslash characters whose escaping the RFC 4180 fix changed.
func isPlainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] >= 0x7f || s[i] == '"' || s[i] == '\\' {
			return false
		}
	}
	return true
}

// TestCSVFieldRFC4180 pins the csvEscape fix: the free-form error column
// must follow RFC 4180 (wrap in quotes, double embedded quotes, pass
// everything else through raw) instead of Go escaping, so CSV readers
// split rows correctly even for errors containing quotes or commas.
func TestCSVFieldRFC4180(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"plain", `"plain"`},
		{`has "quotes" inside`, `"has ""quotes"" inside"`},
		{"comma, field", `"comma, field"`},
		{`back\slash`, `"back\slash"`},     // raw, not doubled
		{"multi\nline", "\"multi\nline\""}, // raw newline inside quotes
		{`""`, `""""""`},                   // two quotes -> four, wrapped
	}
	for _, c := range cases {
		if got := string(appendCSVField(nil, c.in)); got != c.want {
			t.Errorf("appendCSVField(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCSVRowWellFormedUnderHostileErrors runs hostile error strings
// through a full row and checks a conforming RFC 4180 split recovers
// exactly the original cells — the property strconv.Quote violated.
func TestCSVRowWellFormedUnderHostileErrors(t *testing.T) {
	for _, errStr := range escapeStrings() {
		if strings.ContainsAny(errStr, "\n\r") {
			continue // embedded newlines are legal but the naive splitter below can't handle them
		}
		tr := TrialResult{Trial: Trial{Index: 1, Algo: "a", Graph: "g", Mode: "m", Wake: "w"}, Err: errStr}
		row := string(appendTrialCSV(nil, &tr))
		cells := splitCSVLine(strings.TrimSuffix(row, "\n"))
		if len(cells) != len(csvHeader) {
			t.Fatalf("err %q: row splits into %d cells, want %d: %q", errStr, len(cells), len(csvHeader), row)
		}
		if got := cells[len(cells)-1]; got != errStr {
			t.Errorf("err %q round-trips as %q", errStr, got)
		}
	}
}

// splitCSVLine is a minimal RFC 4180 single-line field splitter for the
// round-trip check above.
func splitCSVLine(line string) []string {
	var cells []string
	i := 0
	for {
		if i < len(line) && line[i] == '"' {
			var b strings.Builder
			i++
			for i < len(line) {
				if line[i] == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(line[i])
				i++
			}
			cells = append(cells, b.String())
		} else {
			j := strings.IndexByte(line[i:], ',')
			if j < 0 {
				cells = append(cells, line[i:])
				return cells
			}
			cells = append(cells, line[i:i+j])
			i += j
		}
		if i >= len(line) {
			return cells
		}
		i++ // the comma after the field
		if i == len(line) {
			cells = append(cells, "")
			return cells
		}
	}
}

// TestJSONEmitterMatchesLegacyDocument runs a real sweep (fault cells
// included) twice — once through the live emitter, once through a
// json.Marshal re-encode of every streamed record — and requires the two
// documents to be byte-identical. This is the end-to-end golden pin for
// the whole zero-reflection path.
func TestJSONEmitterMatchesLegacyDocument(t *testing.T) {
	spec := Spec{
		Name:   "golden",
		Algos:  []string{"leastel", "kingdom"},
		Graphs: []string{"ring:12", "random:16:40"},
		Modes:  []string{"congest", "async"},
		Delays: []string{"unit", "random:4"},
		Faults: []string{"none", "crash:0.2"},
		Trials: 2,
		Seed:   9,
	}
	data, rep := runToJSON(t, spec, 4)

	// Rebuild the document the way the pre-PR emitter did.
	var legacy strings.Builder
	specJSON, err := json.Marshal(rep.Spec)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&legacy, "{\"schema\":%q,\n\"spec\":%s,\n\"trials\":[", SchemaVersion, specJSON)
	doc, err := ParseDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range doc.Trials {
		rec, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(&legacy, "%s%s", sep, rec)
	}
	groups, err := json.Marshal(rep.Groups)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&legacy, "\n],\n\"groups\":%s,\n\"total_trials\":%d,\n\"errors\":%d}\n",
		groups, rep.Total, rep.Errors)
	if legacy.String() != string(data) {
		t.Fatal("live JSON emitter output differs from the legacy json.Marshal document")
	}
}

// TestDecodeTrialsStreams checks the streaming decoder sees exactly the
// records ParseDocument materializes, in order, and propagates callback
// errors.
func TestDecodeTrialsStreams(t *testing.T) {
	spec := sweepSpec()
	data, _ := runToJSON(t, spec, 4)
	doc, err := ParseDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []TrialResult
	if err := DecodeTrials(strings.NewReader(string(data)), func(tr TrialResult) error {
		streamed = append(streamed, tr)
		return nil
	}); err != nil {
		t.Fatalf("DecodeTrials: %v", err)
	}
	if len(streamed) != len(doc.Trials) {
		t.Fatalf("streamed %d trials, want %d", len(streamed), len(doc.Trials))
	}
	for i := range streamed {
		if streamed[i] != doc.Trials[i] {
			t.Fatalf("trial %d: streamed %+v != parsed %+v", i, streamed[i], doc.Trials[i])
		}
	}
	// Callback errors abort and propagate.
	sentinel := fmt.Errorf("stop here")
	calls := 0
	err = DecodeTrials(strings.NewReader(string(data)), func(TrialResult) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || calls != 3 {
		t.Fatalf("callback error: err=%v calls=%d", err, calls)
	}
	// Bad inputs error instead of panicking.
	for _, bad := range []string{"", "[]", `{"trials":[]}`, `{"schema":"nope","trials":[]}`, `{"schema":"ule-sweep/v3","trials":{}}`} {
		if err := DecodeTrials(strings.NewReader(bad), func(TrialResult) error { return nil }); err == nil {
			t.Errorf("DecodeTrials(%q): want error", bad)
		}
	}
}
