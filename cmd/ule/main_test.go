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
	if err := run([]string{"-graph", "ring:16", "-algo", "leastel", "-mode", "async", "-delay", "random:4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-algo", "no-such"}, io.Discard); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-graph", "nope:5"}, io.Discard); err == nil {
		t.Error("unknown graph family accepted")
	}
	if err := run([]string{"-mode", "quantum"}, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "async", "-delay", "gauss:2"}, io.Discard); err == nil {
		t.Error("unknown delay schedule accepted")
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
