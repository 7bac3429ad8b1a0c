package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

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
