package fleet

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzLeaseLine holds the fleet's two line readers to their writers. A
// worker trusts its stdin and a coordinator trusts the stdout of a process
// that may die mid-write, so neither reader may panic on any line:
// parseLease accepts only lines that render back through lease.line to the
// same lease, and parseWorkerLine reads every `done S C err "<msg>"` line
// a worker prints back into its fields.
func FuzzLeaseLine(f *testing.F) {
	for _, seed := range []struct {
		line         string
		start, count int
		msg          string
	}{
		{`0 1 "/tmp/a.ulss"`, 0, 1, "boom"},
		{`507 506 "/tmp/with space/and \"quote\"/ü.ulss" kill 0`, 507, 506, `shard "x": no space left`},
		{`9 3 "rel.ulss" stall 2`, 9, 3, ""},
		{"hb 0 2400", -1, 0, "\xff\n"},
		{`done 4 2 err "lease failed"`, 1 << 40, 2, "multi\nline"},
		{`1 2 "x" maim 3`, 0, 0, "\x00"},
	} {
		f.Add(seed.line, seed.start, seed.count, seed.msg)
	}
	f.Fuzz(func(t *testing.T, line string, start, count int, msg string) {
		if l, err := parseLease(line, chaosAction{}); err == nil {
			back, err := parseLease(strings.TrimSuffix(l.line(), "\n"), chaosAction{})
			if err != nil || back != l {
				t.Fatalf("parseLease(%q) = %+v, but its line %q reads back as %+v, %v", line, l, l.line(), back, err)
			}
		}
		parseWorkerLine(line)
		done := fmt.Sprintf("done %d %d err %q", start, count, msg)
		if got, want := parseWorkerLine(done), (workerLine{kind: "done", a: start, b: count, err: msg}); got != want {
			t.Fatalf("parseWorkerLine(%q) = %+v, want %+v", done, got, want)
		}
	})
}
