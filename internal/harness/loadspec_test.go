package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specFile writes body to name under dir and returns its path.
func specFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSpec: the reader takes builtin:smoke or a spec file, and refuses
// malformed JSON and a missing file.
func TestLoadSpec(t *testing.T) {
	if _, err := LoadSpec("builtin:smoke"); err != nil {
		t.Fatalf("builtin:smoke: %v", err)
	}
	dir := t.TempDir()
	spec, err := LoadSpec(specFile(t, dir, "good.json", `{"name":"x","algos":["leastel"],"graphs":["ring:8"],"trials":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "x" || spec.Trials != 3 {
		t.Fatalf("loaded %+v", spec)
	}
	if _, err := LoadSpec(specFile(t, dir, "bad.json", `{"algos":`)); err == nil {
		t.Error("malformed spec accepted")
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadSpecIsStrict: the spec reader every front end shares names a key
// the schema does not have instead of running a sweep without it, and
// refuses a file with anything after the spec, where such a key could hide.
func TestLoadSpecIsStrict(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, body, want string }{
		{"typo", `{"name":"typo","algos":["leastel"],"graphs":["ring:8"],"trails":5,"seed":3,"shards":2}`, `"trails"`},
		{"shards", `{"algos":["leastel"],"graphs":["ring:8"],"shards":2}`, `"shards"`},
		{"second value", `{"algos":["leastel"],"graphs":["ring:8"]}` + "\n" + `{"trails":3}`, "data after the spec"},
		{"trailing garbage", `{"algos":["leastel"],"graphs":["ring:8"]} garbage`, "data after the spec"},
		{"stray brace", `{"algos":["leastel"],"graphs":["ring:8"]}}`, "data after the spec"},
	} {
		_, err := LoadSpec(specFile(t, dir, c.name+".json", c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
	if _, err := LoadSpec(specFile(t, dir, "newline.json", `{"algos":["leastel"],"graphs":["ring:8"]}`+"\n\n")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// TestDocumentsEchoingShardsStillParse: documents written while a spec
// could carry "shards" (testdata/shards-echo.*, the same two-trial sweep
// as JSON and as binary) are read by the lenient document readers, the
// binary exports to its JSON twin byte for byte, and resuming it under
// the spec as it reads now fails on the spec hash.
func TestDocumentsEchoingShardsStillParse(t *testing.T) {
	binPath := filepath.Join("testdata", "shards-echo.ulsb")
	jsonDoc, err := os.ReadFile(filepath.Join("testdata", "shards-echo.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(jsonDoc, []byte(`"shards":2`)) {
		t.Fatal(`testdata JSON does not echo "shards":2`)
	}

	doc, err := ParseDocument(jsonDoc)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	if doc.TotalTrials != 2 || doc.Spec.Name != "shards-echo" {
		t.Fatalf("parsed %d trials of %q", doc.TotalTrials, doc.Spec.Name)
	}
	count := func(decode func(func(TrialResult) error) error) int {
		n := 0
		if err := decode(func(TrialResult) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(func(fn func(TrialResult) error) error { return DecodeTrials(bytes.NewReader(jsonDoc), fn) }); n != 2 {
		t.Errorf("DecodeTrials: %d trials, want 2", n)
	}
	if n := count(func(fn func(TrialResult) error) error { return DecodeBinaryTrials(bytes.NewReader(bin), fn) }); n != 2 {
		t.Errorf("DecodeBinaryTrials: %d trials, want 2", n)
	}

	var exported bytes.Buffer
	if err := ExportJSON(bytes.NewReader(bin), &exported); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	if !bytes.Equal(exported.Bytes(), jsonDoc) {
		t.Fatalf("ExportJSON differs from the JSON document (%d vs %d bytes)", exported.Len(), len(jsonDoc))
	}

	ck, err := InspectBinary(binPath)
	if err != nil {
		t.Fatalf("InspectBinary: %v", err)
	}
	p, err := ck.Spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunConfig{Resume: ck}); err == nil || !strings.Contains(err.Error(), "resume spec mismatch") {
		t.Fatalf("resume under the re-read spec: err = %v, want a spec mismatch", err)
	}
}
