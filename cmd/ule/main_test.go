package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"ule/internal/harness"
	"ule/internal/serve"
)

func TestRunListAndElection(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "ring:16", "-algo", "leastel", "-trials", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-algo", "no-such"}, io.Discard); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-graph", "nope:5"}, io.Discard); err == nil {
		t.Error("unknown graph family accepted")
	}
	if err := run([]string{"-anonymous", "-small-ids"}, io.Discard); err == nil {
		t.Error("anonymous run with small IDs accepted")
	}
	if err := run([]string{"-model", "quantum"}, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-model", "async+gauss:2"}, io.Discard); err == nil {
		t.Error("unknown delay schedule accepted")
	}
}

// TestModelFlagPinnedOutput: an async row prints these bytes, the ones
// the same election printed when its model was spelled in three flags.
func TestModelFlagPinnedOutput(t *testing.T) {
	const want = `graph ring:16: n=16 m=16  (async, delay random:4)
trial  rounds  messages  bits  leaders  unique
-----  ------  --------  ----  -------  ------
0      43      126       5522  1        true  
messages: mean=126.0 (±0.0)  msgs/m=7.88
rounds:   mean=43.0 (±0.0)
`
	var out bytes.Buffer
	if err := run([]string{"-graph", "ring:16", "-algo", "leastel", "-model", "async+random:4"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestModelFlag: every part of the execution model (mode, delay schedule,
// fault adversary) reaches the run through -model alone, as the header
// lines show, and a model the grammar does not know is an error.
func TestModelFlag(t *testing.T) {
	const plain = "graph ring:8: n=8 m=8\n"
	for _, c := range []struct{ name, model, head string }{
		{"default congest", "", plain + "trial "},
		{"congest", "congest", plain + "trial "},
		{"local", "local", plain + "trial "},
		{"async unit", "async", "graph ring:8: n=8 m=8  (async, delay unit)\ntrial "},
		{"mode in capitals", "ASYNC", "graph ring:8: n=8 m=8  (async, delay unit)\ntrial "},
		{"async with delay", "async+fifo:8", "graph ring:8: n=8 m=8  (async, delay fifo:8)\ntrial "},
		{"faults appended", "async+random:4+crashrec:0.1:32", "graph ring:8: n=8 m=8  (async, delay random:4)\nfaults: crashrec:0.1:32\ntrial "},
		{"bad model", "warp", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-graph", "ring:8", "-algo", "leastel", "-model", c.model}, &out)
			if c.head == "" {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), c.head) {
				t.Errorf("output:\n%s\nwant it to begin:\n%s", out.String(), c.head)
			}
		})
	}
}

// TestRemovedFlagsFailParsing: the model is one flag and the engine picks
// the shard count, so these are not flags.
func TestRemovedFlagsFailParsing(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-mode", "async"},
		{"-delay", "random:4"},
		{"-faults", "crash:0.2"},
	} {
		err := run(append([]string{"-graph", "ring:8"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want a flag error", args, err)
		}
	}
}

// TestSmallIDsRowMatchesService: a `ule` row is the election a uled request
// with the same graph, algorithm, seed and small_ids runs — one ID stream,
// one recipe. dfs makes the ID assignment visible in every column.
func TestSmallIDsRowMatchesService(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-graph", "ring:16", "-algo", "dfs", "-small-ids", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	m := serve.NewManager(serve.Config{Slots: 1})
	defer m.Shutdown(context.Background())
	want, err := m.RunElection(context.Background(), serve.ElectionRequest{
		Graph: "ring:16", GraphSeed: 7, Algo: "dfs", Seed: 7, SmallIDs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "0" {
			row = f
		}
	}
	if row == nil {
		t.Fatalf("no trial-0 row in:\n%s", out.String())
	}
	got := strings.Join(row[1:4], " ")
	if w := fmt.Sprintf("%d %d %d", want.Rounds, want.Messages, want.Bits); got != w {
		t.Errorf("ule row rounds/messages/bits = %s, uled says %s", got, w)
	}
}

// pinnedElections are the uled bodies TestOutputPins holds, one per
// recipe corner: plain, small IDs, async, crash-recovery, crashes, a
// round cap under loss and churn, a large graph, an adversarial wake, an
// estimated diameter.
var pinnedElections = []string{
	`{"graph":"ring:64","algo":"leastel","seed":1}`,
	`{"graph":"torus:8x8","algo":"kingdom","seed":2,"small_ids":true}`,
	`{"graph":"ring:32","algo":"lasvegas","seed":3,"model":"async+random:4"}`,
	`{"graph":"random:64:200","algo":"leastel-loglog","seed":4,"model":"async+fifo:3+crashrec:0.2:3"}`,
	`{"graph":"grid:8x8","algo":"cluster","seed":5,"model":"crash:0.1"}`,
	`{"graph":"ring:32","algo":"flood","seed":6,"model":"drop:0.05+churn:0.2:4","max_rounds":40}`,
	`{"graph":"torus:100x100","algo":"leastel","seed":7}`,
	`{"graph":"ring:64","algo":"leastel","seed":8,"model":"async","wake":"adversarial"}`,
	`{"graph":"random:48:120","algo":"kingdom-d","seed":9,"small_ids":true,"diameter_estimate":true}`,
}

// TestOutputPins holds five `ule` tables (the last three reach a
// reset-state rejoin of cluster, dfs and spanner-le with records still in
// flight), the uled bodies above (each
// posted twice to one slot, so the second comes from a warm cell) and a
// builtin:smoke /v1/sweeps stream to the SHA-256 sums in
// testdata/pins.json. `make pins` prints fresh sums.
func TestOutputPins(t *testing.T) {
	got := map[string][]byte{}
	for i, args := range [][]string{
		{"-graph", "ring:64", "-algo", "leastel", "-trials", "3", "-seed", "1"},
		{"-graph", "torus:8x8", "-algo", "kingdom-d", "-small-ids", "-trials", "3", "-seed", "1", "-model", "crash:0.1"},
		{"-graph", "random:48:160", "-algo", "cluster", "-trials", "3", "-model", "async+random:4+crashrec:0.2:8"},
		{"-graph", "torus:6x6", "-algo", "dfs", "-small-ids", "-trials", "3", "-max-rounds", "4096", "-model", "crashrec:0.2:8"},
		{"-graph", "random:64:512", "-algo", "spanner-le", "-trials", "3", "-max-rounds", "2048", "-model", "async+fifo:4+crashrec:0.1:8"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("ule/table-%d", i)] = out.Bytes()
	}
	m := serve.NewManager(serve.Config{Slots: 1})
	defer m.Shutdown(context.Background())
	h := serve.NewHandler(m, serve.HandlerConfig{})
	post := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for i, body := range pinnedElections {
		cold, warm := post("/v1/elections", body), post("/v1/elections", body)
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: warm body %s, cold %s", body, warm, cold)
		}
		got[fmt.Sprintf("uled/election-%d", i)] = cold
	}
	smoke, err := json.Marshal(harness.Smoke())
	if err != nil {
		t.Fatal(err)
	}
	got["uled/sweep-smoke"] = post("/v1/sweeps", string(smoke))
	checkPins(t, got)
}

// checkPins compares the SHA-256 of each output in got with its entry in
// testdata/pins.json, and requires an output for every entry under the
// prefixes of got's keys. With ULE_PINS=print it prints the sums instead.
func checkPins(t *testing.T, got map[string][]byte) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	prefixes := map[string]bool{}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		prefixes[k[:strings.IndexByte(k, '/')+1]] = true
		sum := fmt.Sprintf("%x", sha256.Sum256(got[k]))
		if os.Getenv("ULE_PINS") == "print" {
			fmt.Printf("  %q: %q\n", k, sum)
		} else if sum != pins[k] {
			t.Errorf("%s: sha256 %s, pinned %q", k, sum, pins[k])
		}
	}
	for k := range pins {
		if prefixes[k[:strings.IndexByte(k, '/')+1]] && got[k] == nil {
			t.Errorf("%s: pinned, but no output", k)
		}
	}
}
