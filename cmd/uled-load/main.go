// Command uled-load is the boot-and-correctness check of the uled server
// (make serve-smoke): healthz, a deterministic election (served twice,
// byte-identical, and equal to the locally computed batch result), a
// guaranteed-400 model error, a streamed sweep verified byte-for-byte
// against a local harness run, an async job lifecycle (submit, poll,
// fetch, delete) and a goroutine-flatness check via /debug/vars. Load
// measurement is cmd/ule-bench's serve-mix workload.
//
// Usage:
//
//	uled-load -addr http://127.0.0.1:8080 -smoke
//	uled-load -spawn bin/uled -smoke
//
// -spawn boots its own uled on an ephemeral port (via -addr-file), sends
// SIGTERM when done, and fails unless the server drains and exits 0 — so
// one invocation exercises boot, requests and graceful shutdown end to end.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ule/internal/cmdutil"
	"ule/internal/harness"
	"ule/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uled-load:", err)
		os.Exit(1)
	}
}

type options struct {
	addr      string
	graph     string
	algo      string
	model     string
	seed      int64
	sweepSpec harness.Spec
}

func run(args []string) error {
	fs := flag.NewFlagSet("uled-load", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "server base URL (e.g. http://127.0.0.1:8080); empty with -spawn")
		spawn     = fs.String("spawn", "", "path to a uled binary to boot on an ephemeral port and shut down after the run")
		spawnArgs = fs.String("spawn-args", "", "extra uled flags for -spawn (space-separated)")
		smoke     = fs.Bool("smoke", false, "run the boot/correctness sequence (the only mode; load measurement is cmd/ule-bench)")
		graphSpec = fs.String("graph", "ring:64", "election request graph spec")
		algo      = fs.String("algo", "leastel", "election request algorithm")
		model     = fs.String("model", "", "election request execution model")
		seed      = fs.Int64("seed", 1, "election request seed")
		sweepFile = fs.String("sweep-spec", "", "sweep spec: JSON file or builtin:smoke (default: a small built-in mix)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*smoke {
		return fmt.Errorf("need -smoke (load measurement moved to cmd/ule-bench, workload serve-mix)")
	}

	o := options{addr: *addr, graph: *graphSpec, algo: *algo, model: *model, seed: *seed}
	if *sweepFile != "" {
		spec, err := cmdutil.LoadSpec(*sweepFile)
		if err != nil {
			return err
		}
		o.sweepSpec = spec
	} else {
		o.sweepSpec = harness.Spec{
			Name:     "serve-mix",
			Algos:    []string{"leastel", "flood"},
			Graphs:   []string{"ring:32"},
			Trials:   2,
			Seed:     7,
			SmallIDs: true,
		}
	}

	if *spawn != "" {
		sp, err := spawnServer(*spawn, strings.Fields(*spawnArgs))
		if err != nil {
			return err
		}
		o.addr = "http://" + sp.addr
		runErr := runSmoke(o)
		stopErr := sp.stop()
		if runErr != nil {
			return runErr
		}
		return stopErr
	}
	if o.addr == "" {
		return fmt.Errorf("need -addr or -spawn")
	}
	if !strings.HasPrefix(o.addr, "http") {
		o.addr = "http://" + o.addr
	}
	return runSmoke(o)
}

// ---- server spawning ----

type spawned struct {
	cmd  *exec.Cmd
	addr string
}

// spawnServer boots a uled binary on an ephemeral port and waits for its
// -addr-file to appear.
func spawnServer(bin string, extra []string) (*spawned, error) {
	dir, err := os.MkdirTemp("", "uled-load")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	bo := cmdutil.Backoff{Base: 5 * time.Millisecond, Cap: 100 * time.Millisecond}
	for attempt := 0; ; attempt++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return &spawned{cmd: cmd, addr: string(data)}, nil
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			cmd.Process.Kill()
			return nil, fmt.Errorf("spawned server did not come up within 10s")
		}
		time.Sleep(bo.Delay(attempt))
	}
}

// stop sends SIGTERM and requires a clean (exit 0) drain within 30s —
// the graceful-shutdown assertion of `make serve-smoke`.
func (s *spawned) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		return fmt.Errorf("server did not drain within 30s of SIGTERM")
	}
}

// ---- HTTP helpers ----

func newClient(concurrency int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * concurrency,
			MaxIdleConnsPerHost: 2 * concurrency,
		},
		Timeout: 60 * time.Second,
	}
}

func postJSON(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// goroutines reads the uled_goroutines expvar.
func goroutines(c *http.Client, base string) (int, error) {
	var vars struct {
		Goroutines int `json:"uled_goroutines"`
	}
	if err := getJSON(c, base+"/debug/vars", &vars); err != nil {
		return 0, err
	}
	return vars.Goroutines, nil
}

func (o options) electionBody(seed int64) []byte {
	req := serve.ElectionRequest{
		Graph: o.graph, Algo: o.algo, Model: o.model, Seed: seed,
	}
	b, _ := json.Marshal(req)
	return b
}

// localSweepNDJSON renders the batch-path NDJSON document for spec.
func localSweepNDJSON(spec harness.Spec) ([]byte, error) {
	var buf bytes.Buffer
	_, err := harness.Run(spec, harness.RunConfig{
		Workers:  1,
		Emitters: []harness.Emitter{harness.NewNDJSONEmitter(&buf)},
	})
	return buf.Bytes(), err
}

// ---- smoke mode ----

func runSmoke(o options) error {
	c := newClient(4)
	base := o.addr
	step := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "uled-load: smoke %-28s ok\n", name)
		return nil
	}

	// healthz.
	var health struct {
		Status string `json:"status"`
	}
	if err := step("healthz", getJSON(c, base+"/healthz", &health)); err != nil {
		return err
	}
	g0, err := goroutines(c, base)
	if err := step("debug/vars", err); err != nil {
		return err
	}

	// One election, served twice: byte-identical responses, and equal to
	// the locally computed batch-path result.
	body := o.electionBody(o.seed)
	code, first, err := postJSON(c, base+"/v1/elections", body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, first)
	}
	if err := step("election", err); err != nil {
		return err
	}
	_, second, err := postJSON(c, base+"/v1/elections", body)
	if err == nil && !bytes.Equal(first, second) {
		err = fmt.Errorf("same seed, different responses")
	}
	if err := step("election determinism", err); err != nil {
		return err
	}
	local := serve.NewManager(serve.Config{Slots: 1})
	var req serve.ElectionRequest
	json.Unmarshal(body, &req)
	want, err := localElectionJSON(local, req)
	if err == nil && !bytes.Equal(bytes.TrimRight(first, "\n"), want) {
		err = fmt.Errorf("served result differs from the batch path:\n  served %s\n  batch  %s", first, want)
	}
	if err := step("election vs batch", err); err != nil {
		return err
	}

	// A guaranteed 400 carrying the offending token.
	bad := []byte(`{"graph":"ring:8","algo":"leastel","model":"bogusmodel"}`)
	code, resp, err := postJSON(c, base+"/v1/elections", bad)
	if err == nil {
		if code != http.StatusBadRequest {
			err = fmt.Errorf("want 400, got %d", code)
		} else if !bytes.Contains(resp, []byte("bogusmodel")) {
			err = fmt.Errorf("400 body does not name the offending token: %s", resp)
		}
	}
	if err := step("model error -> 400", err); err != nil {
		return err
	}

	// A streamed sweep, byte-identical to the local batch run.
	specJSON, _ := json.Marshal(o.sweepSpec)
	code, stream, err := postJSON(c, base+"/v1/sweeps", specJSON)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, stream)
	}
	if err := step("sweep stream", err); err != nil {
		return err
	}
	want, err = localSweepNDJSON(o.sweepSpec)
	if err == nil && !bytes.Equal(stream, want) {
		err = fmt.Errorf("served NDJSON differs from the batch path (%d vs %d bytes)", len(stream), len(want))
	}
	if err := step("sweep vs batch", err); err != nil {
		return err
	}

	// Async job lifecycle: submit, poll to done, fetch result, delete.
	code, acc, err := postJSON(c, base+"/v1/sweeps?async=1", specJSON)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("status %d: %s", code, acc)
	}
	if err := step("async submit", err); err != nil {
		return err
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(acc, &job); err != nil {
		return fmt.Errorf("async submit: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	pollBo := cmdutil.Backoff{Base: 10 * time.Millisecond, Cap: 200 * time.Millisecond}
	for attempt := 0; ; attempt++ {
		if err := getJSON(c, base+"/v1/jobs/"+job.ID, &job); err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
		if job.State == "done" || job.State == "failed" || job.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s did not finish within 30s", job.ID)
		}
		time.Sleep(pollBo.Delay(attempt))
	}
	var jobErr error
	if job.State != "done" {
		jobErr = fmt.Errorf("job ended %s: %s", job.State, job.Error)
	}
	if err := step("async done", jobErr); err != nil {
		return err
	}
	delReq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+job.ID, nil)
	resp2, err := c.Do(delReq)
	if err == nil {
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			err = fmt.Errorf("delete status %d", resp2.StatusCode)
		}
	}
	if err := step("job delete", err); err != nil {
		return err
	}

	// Goroutine flatness after everything settled.
	var g1 int
	flatErr := waitFlat(func() (bool, error) {
		var err error
		g1, err = goroutines(c, base)
		return err == nil && g1 <= g0+8, err
	}, 5*time.Second)
	if flatErr != nil {
		flatErr = fmt.Errorf("goroutines grew %d -> %d: %w", g0, g1, flatErr)
	}
	return step(fmt.Sprintf("goroutines flat (%d -> %d)", g0, g1), flatErr)
}

// localElectionJSON computes the batch-path election result document.
func localElectionJSON(m *serve.Manager, req serve.ElectionRequest) ([]byte, error) {
	res, err := m.RunElection(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func waitFlat(check func() (bool, error), budget time.Duration) error {
	deadline := time.Now().Add(budget)
	bo := cmdutil.Backoff{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond}
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		ok, err := check()
		lastErr = err
		if ok {
			return nil
		}
		time.Sleep(bo.Delay(attempt))
	}
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("still above the flatness bound after %v", budget)
}
