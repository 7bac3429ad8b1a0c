//go:build mutants

// The mutation smoke (`make mutants`): each row of mutants breaks the
// program on purpose — an exact text in one file swapped for another,
// through `go test -overlay`, so the tree is never written — and names
// the tests that must fail on the broken copy. A row whose old text no
// longer matches exactly once fails the smoke instead of silently
// testing nothing, and so does a row that names a byte pin: a pinned
// hash moves on any change, so its failure says nothing about whether a
// rule is tested.
package ule

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// edit replaces old, which must occur exactly once in the file, by new.
type edit struct{ old, new string }

// mutant is one deliberate fault: edits to file, and the tests of pkg
// that must fail with them applied.
type mutant struct {
	name  string
	file  string
	edits []edit
	pkg   string
	kills []string
}

var mutants = []mutant{
	{
		name:  "message slack 16 to 64",
		file:  "internal/core/check.go",
		edits: []edit{{"const msgSlack = 16", "const msgSlack = 64"}},
		pkg:   "./internal/core",
		kills: []string{"TestCheckMessageCeiling"},
	},
	{
		name: "CONGEST bit cap off",
		file: "internal/sim/sim.go",
		edits: []edit{
			{"if e.cfg.Model.Mode != LOCAL && bits > e.bitCap {\n\t\te.nodeErr[u]", "if false {\n\t\te.nodeErr[u]"},
			{"if e.cfg.Model.Mode != LOCAL && bits > e.bitCap {\n\t\te.send(c, first, p)", "if false {\n\t\te.send(c, first, p)"},
		},
		pkg:   "./internal/sim",
		kills: []string{"TestCongestBitCapEnforced"},
	},
	{
		name:  "no jump to a pending recovery",
		file:  "internal/sim/event.go",
		edits: []edit{{"case e.pendingUp() > 0:", "case false:"}},
		pkg:   "./internal/sim",
		kills: []string{"TestCrashRecoveryReset", "TestCrashRecoveryKeep", "TestChurnDeterministic"},
	},
	{
		name:  "Halt keeps the node running",
		file:  "internal/sim/sim.go",
		edits: []edit{{"\t\tc.sh.numRunning-- // the stepping shard's own counter\n", ""}},
		pkg:   "./internal/sim",
		kills: []string{"TestReferenceRandomSchedules", "TestIdleHintSoundness"},
	},
	{
		name:  "gather lands on the skipped port",
		file:  "internal/sim/shard.go",
		edits: []edit{{"if s.tick == t && s.skip != e.portBack[p] {", "if s.tick == t {"}},
		pkg:   "./internal/sim",
		kills: []string{"TestReferenceRandomSchedules", "TestSlotRoutes"},
	},
	{
		name:  "a later send leaves the slot whole",
		file:  "internal/sim/sim.go",
		edits: []edit{{"\tif e.slots && e.bcast[u].tick == e.round {\n\t\te.expand(c)\n\t}\n\tdeg := int(e.off[u+1] - e.off[u])\n\tif port < 0", "\tdeg := int(e.off[u+1] - e.off[u])\n\tif port < 0"}},
		pkg:   "./internal/sim",
		kills: []string{"TestPortSendCapSpansStartAndRound", "TestReferenceRandomSchedules"},
	},
}

// bytePin matches the tests that hold output bytes or golden hashes.
var bytePin = regexp.MustCompile(`Pin|Golden|^TestSmokeTraced$`)

func TestMutants(t *testing.T) {
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			for _, k := range m.kills {
				if bytePin.MatchString(k) {
					t.Fatalf("%s is a byte pin: its failure is no kill", k)
				}
			}
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			text := string(src)
			for _, e := range m.edits {
				if c := strings.Count(text, e.old); c != 1 {
					t.Fatalf("%s: old text %q matches %d times, want exactly 1", m.file, e.old, c)
				}
				text = strings.Replace(text, e.old, e.new, 1)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			run := "^(" + strings.Join(m.kills, "|") + ")$"
			out, _ := exec.Command("go", "test", "-json", "-count=1", "-overlay", overlayPath, "-run", run, m.pkg).Output()
			failed := map[string]bool{}
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var ev struct{ Action, Test string }
				if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Action == "fail" && ev.Test != "" {
					failed[ev.Test] = true
				}
			}
			for _, k := range m.kills {
				if !failed[k] {
					t.Errorf("%s survived %s: %s\n%s", k, m.name, m.file, tail(out))
				}
			}
		})
	}
}

// tail returns the last lines of a go test -json stream, for the report
// of a surviving mutant (a build error shows there).
func tail(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}
