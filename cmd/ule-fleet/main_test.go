package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecUnknownFieldNamed: a spec key the schema does not have stops
// the fleet before any worker starts, with the key named.
func TestSpecUnknownFieldNamed(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, body, field string }{
		{"typo", `{"name":"typo","algos":["leastel"],"graphs":["ring:8"],"trails":5,"seed":3,"shards":2}`, "trails"},
		{"shards", `{"algos":["leastel"],"graphs":["ring:8"],"shards":2}`, "shards"},
	} {
		spec := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(spec, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-spec", spec, "-out", filepath.Join(dir, c.name+".ulsb"), "-dir", filepath.Join(dir, c.name)})
		if err == nil || !strings.Contains(err.Error(), `"`+c.field+`"`) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.field)
		}
	}
}
