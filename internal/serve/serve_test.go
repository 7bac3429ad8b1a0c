package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ule/internal/core"
	"ule/internal/harness"
)

// newTestServer boots a handler over a fresh Manager and tears both down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return ts, m
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// captureEmitter records the trial stream of a local harness run.
type captureEmitter struct{ trials []harness.TrialResult }

func (c *captureEmitter) Begin(harness.Spec, int) error { return nil }
func (c *captureEmitter) Trial(tr harness.TrialResult) error {
	c.trials = append(c.trials, tr)
	return nil
}
func (c *captureEmitter) End(*harness.Report) error { return nil }

// smallSpec is the sweep used throughout: 2 algos x 1 graph x 2 reps.
func smallSpec() harness.Spec {
	return harness.Spec{
		Name:     "serve-test",
		Algos:    []string{"leastel", "flood"},
		Graphs:   []string{"ring:32"},
		Trials:   2,
		Seed:     7,
		SmallIDs: true,
	}
}

// TestElectionMatchesBatchTrial pins the served election reduction to the
// batch harness: the same (graph, algo, seed, wake) run through
// POST /v1/elections and through harness.Run agree on every measurement.
func TestElectionMatchesBatchTrial(t *testing.T) {
	spec := harness.Spec{
		Algos:    []string{"leastel"},
		Graphs:   []string{"ring:24"},
		Trials:   1,
		Seed:     5,
		SmallIDs: true,
	}
	cap := &captureEmitter{}
	if _, err := harness.Run(spec, harness.RunConfig{Workers: 1, Emitters: []harness.Emitter{cap}}); err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	if len(cap.trials) != 1 {
		t.Fatalf("got %d trials, want 1", len(cap.trials))
	}
	tr := cap.trials[0]

	ts, _ := newTestServer(t, Config{Slots: 1})
	body := fmt.Sprintf(`{"graph":"ring:24","algo":"leastel","seed":%d,"model":%q,"wake":%q,"small_ids":true}`,
		tr.Seed, tr.Mode, tr.Wake)
	code, data := postJSON(t, ts.URL+"/v1/elections", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var res ElectionResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if res.N != tr.N || res.M != tr.M || res.D != tr.D ||
		res.Rounds != tr.Rounds || res.LastActive != tr.LastActive ||
		res.Messages != tr.Messages || res.Bits != tr.Bits ||
		res.Leaders != tr.Leaders || res.Unique != tr.Unique ||
		res.Halted != tr.Halted {
		t.Fatalf("served election diverges from the batch trial:\n  served %+v\n  batch  %+v", res, tr)
	}
}

// TestElectionDeterminism: the same request is byte-identical across
// repeats and across independent server instances (so slot-cache state
// never leaks into results).
func TestElectionDeterminism(t *testing.T) {
	body := `{"graph":"random:48:144","algo":"flood","seed":42,"model":"async+random:4","small_ids":true}`
	ts1, _ := newTestServer(t, Config{Slots: 2})
	ts2, _ := newTestServer(t, Config{Slots: 2})

	_, first := postJSON(t, ts1.URL+"/v1/elections", body)
	_, again := postJSON(t, ts1.URL+"/v1/elections", body)
	_, other := postJSON(t, ts2.URL+"/v1/elections", body)
	if !bytes.Equal(first, again) {
		t.Fatalf("same server, same request, different bytes:\n  %s\n  %s", first, again)
	}
	if !bytes.Equal(first, other) {
		t.Fatalf("fresh server diverges on the same request:\n  %s\n  %s", first, other)
	}
}

// TestBadRequests: every malformed request, and every run that fails on
// the server, maps to the right status and the body names the offending
// token.
func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Config{Slots: 1})
	cases := []struct {
		name  string
		path  string
		body  string
		code  int
		token string
	}{
		{"malformed JSON", "/v1/elections", `{"graph":`, 400, "body"},
		{"unknown field", "/v1/elections", `{"graph":"ring:8","algo":"leastel","bogus":1}`, 400, "bogus"},
		{"missing graph", "/v1/elections", `{"algo":"leastel"}`, 400, "graph"},
		{"missing algo", "/v1/elections", `{"graph":"ring:8"}`, 400, "algo"},
		{"bad graph family", "/v1/elections", `{"graph":"blob:9","algo":"leastel"}`, 400, "blob"},
		{"bad algo", "/v1/elections", `{"graph":"ring:8","algo":"zeus"}`, 400, "zeus"},
		{"bad model", "/v1/elections", `{"graph":"ring:8","algo":"leastel","model":"warp"}`, 400, "warp"},
		{"bad wake", "/v1/elections", `{"graph":"ring:8","algo":"leastel","wake":"sometimes"}`, 400, "sometimes"},
		// An anonymous network has no identifiers to assign.
		{"anonymous small IDs", "/v1/elections", `{"graph":"ring:16","algo":"leastel","seed":3,"anonymous":true,"small_ids":true}`, 400, "anonymous excludes small_ids"},
		{"anonymous flood", "/v1/elections", `{"graph":"ring:16","algo":"flood","anonymous":true}`, 400, "flood requires unique IDs"},
		{"rounds above cap", "/v1/elections", `{"graph":"ring:8","algo":"leastel","max_rounds":4194304}`, 400, "max_rounds"},
		{"sweep bad algo", "/v1/sweeps", `{"algos":["zeus"],"graphs":["ring:8"]}`, 400, "zeus"},
		{"sweep bad graph", "/v1/sweeps", `{"algos":["leastel"],"graphs":["blob:9"]}`, 400, "blob"},
		{"sweep unknown field", "/v1/sweeps", `{"algos":["leastel"],"graphs":["ring:8"],"bogus":1}`, 400, "bogus"},
		{"sweep typo", "/v1/sweeps", `{"name":"typo","algos":["leastel"],"graphs":["ring:8"],"trails":5,"seed":3,"shards":2}`, 400, `"trails"`},
		// The engine alone picks the shard count: the key is unknown.
		{"election shards", "/v1/elections", `{"graph":"ring:8","algo":"leastel","shards":4}`, 400, `"shards"`},
		{"sweep shards", "/v1/sweeps", `{"algos":["leastel"],"graphs":["ring:8"],"shards":2}`, 400, `"shards"`},
		// A served sweep runs one harness worker: the key is unknown.
		{"sweep workers", "/v1/sweeps", `{"algos":["leastel"],"graphs":["ring:8"],"workers":4}`, 400, `"workers"`},
		// One JSON value per body: a second one would go unread.
		{"trailing garbage", "/v1/elections", `{"graph":"ring:8","algo":"leastel"} garbage`, 400, "after the JSON value"},
		{"second value", "/v1/elections", `{"graph":"ring:8","algo":"leastel"}{"shards":3}`, 400, "after the JSON value"},
		{"sweep second value", "/v1/sweeps", `{"algos":["leastel"],"graphs":["ring:8"]}{"trails":3}`, 400, "after the JSON value"},
		// An exact diameter costs O(n·m) and cannot be stopped once it runs.
		{"exact diameter", "/v1/elections", `{"graph":"random:65536:524288","algo":"flood"}`, 400, "diameter_estimate"},
		{"sweep exact diameter", "/v1/sweeps", `{"algos":["leastel","flood"],"graphs":["ring:8","random:65536:524288"]}`, 400, "diameter_estimate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			code, data := postJSON(t, ts.URL+tc.path, tc.body)
			if d := time.Since(start); d > time.Second {
				t.Errorf("answered in %v, want within 1 s", d)
			}
			if code != tc.code {
				t.Fatalf("status %d, want %d (%s)", code, tc.code, data)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body is not the JSON envelope: %s", data)
			}
			if !strings.Contains(eb.Error, tc.token) {
				t.Fatalf("error %q does not name the offending token %q", eb.Error, tc.token)
			}
		})
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job GET: status %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job DELETE: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepStreamByteIdentical pins the served NDJSON stream to the batch
// path: POST /v1/sweeps returns exactly the bytes a local harness.Run
// with the NDJSON emitter produces.
func TestSweepStreamByteIdentical(t *testing.T) {
	spec := smallSpec()
	var want bytes.Buffer
	if _, err := harness.Run(spec, harness.RunConfig{
		Workers:  1,
		Emitters: []harness.Emitter{harness.NewNDJSONEmitter(&want)},
	}); err != nil {
		t.Fatalf("local run: %v", err)
	}

	ts, _ := newTestServer(t, Config{Slots: 2})
	specJSON, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served NDJSON differs from the batch path (%d vs %d bytes)\nserved: %.200s\nbatch:  %.200s",
			len(got), want.Len(), got, want.Bytes())
	}
}

// TestAsyncJobLifecycle drives a job end to end over HTTP: 202 on submit,
// pending/running to done, result document attached, delete removes it.
func TestAsyncJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Config{Slots: 1})
	specJSON, _ := json.Marshal(smallSpec())
	goroutines := func() int {
		var vars struct {
			Goroutines int `json:"uled_goroutines"`
		}
		getJSON(t, ts.URL+"/debug/vars", &vars)
		return vars.Goroutines
	}
	g0 := goroutines()

	code, data := postJSON(t, ts.URL+"/v1/sweeps?async=1", string(specJSON))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, data)
	}
	var job struct {
		ID     string          `json:"id"`
		Kind   string          `json:"kind"`
		State  JobState        `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("bad 202 body: %v", err)
	}
	if job.Kind != "sweep" || job.ID == "" {
		t.Fatalf("bad job snapshot: %s", data)
	}

	deadline := time.Now().Add(30 * time.Second)
	for job.State != JobDone {
		if job.State.terminal() {
			t.Fatalf("job ended %s: %s", job.State, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
	}
	var summary SweepSummary
	if err := json.Unmarshal(job.Result, &summary); err != nil {
		t.Fatalf("job result is not a SweepSummary: %v (%s)", err, job.Result)
	}
	if summary.TotalTrials != 4 || len(summary.Groups) != 2 {
		t.Fatalf("summary = %d trials / %d groups, want 4 / 2", summary.TotalTrials, len(summary.Groups))
	}

	var table struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &table)
	if len(table.Jobs) != 1 || table.Jobs[0].ID != job.ID {
		t.Fatalf("job table = %+v, want the one finished job", table.Jobs)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, nil); code != http.StatusNotFound {
		t.Fatalf("deleted job still visible: status %d", code)
	}

	// Once the job is gone, so are its goroutines: uled_goroutines settles
	// within a few of where it started (idle keep-alive connections).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		g := goroutines()
		if g <= g0+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uled_goroutines grew %d -> %d", g0, g)
		}
	}
}

// TestCancelMidSweep cancels a long sweep over HTTP and checks the job
// lands in cancelled without leaking its goroutines.
func TestCancelMidSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	ts, _ := newTestServer(t, Config{Slots: 1})

	big := harness.Spec{
		Algos:    []string{"flood"},
		Graphs:   []string{"ring:256"},
		Trials:   5000,
		Seed:     3,
		SmallIDs: true,
	}
	specJSON, _ := json.Marshal(big)
	code, data := postJSON(t, ts.URL+"/v1/sweeps?async=1", string(specJSON))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, data)
	}
	var job struct {
		ID    string   `json:"id"`
		State JobState `json:"state"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
		if job.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != JobCancelled {
		t.Fatalf("job state %s, want cancelled", job.State)
	}

	// The worker goroutine and the harness pool behind it must unwind.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	flatBy := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+4 {
			break
		}
		if time.Now().After(flatBy) {
			t.Fatalf("goroutines leaked: %d at start, %d after cancel", base, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestJobDocumentCarriesResult: a job that finished before its 202 body
// is built — a small sweep can — still answers with its result, so a
// client that sees "done" in the 202 never has to poll for it.
func TestJobDocumentCarriesResult(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	j, err := m.SubmitSweep(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil { // waits for the job
		t.Fatalf("Shutdown: %v", err)
	}
	data, err := json.Marshal(j.Document())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		State  JobState        `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var summary SweepSummary
	if doc.State != JobDone || json.Unmarshal(doc.Result, &summary) != nil || summary.TotalTrials != 4 {
		t.Fatalf("the document of a finished job lacks its result: %s", data)
	}
}

// TestShutdownDrains: Shutdown waits for in-flight async jobs, then new
// work and health checks are refused.
func TestShutdownDrains(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	ts := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	defer ts.Close()

	j, err := m.SubmitSweep(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.Snapshot(); st.State != JobDone {
		t.Fatalf("in-flight job ended %s (%s), want done", st.State, st.Error)
	}

	if _, err := m.RunElection(context.Background(), ElectionRequest{Graph: "ring:8", Algo: "leastel"}); err != ErrShutdown {
		t.Fatalf("post-shutdown RunElection err = %v, want ErrShutdown", err)
	}
	if _, err := m.SubmitElection(ElectionRequest{Graph: "ring:8", Algo: "leastel"}); err != ErrShutdown {
		t.Fatalf("post-shutdown SubmitElection err = %v, want ErrShutdown", err)
	}
	code, data := postJSON(t, ts.URL+"/v1/elections", `{"graph":"ring:8","algo":"leastel"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown election status %d: %s", code, data)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("post-shutdown healthz = %d %q, want 503 draining", code, health.Status)
	}
}

// TestJobGC: a finished job older than the TTL is never returned — not
// listed by Jobs, ErrNotFound from Job — though no goroutine keeps time:
// the table is pruned whenever it is read or grown.
func TestJobGC(t *testing.T) {
	m := NewManager(Config{Slots: 1, MaxJobs: 2, JobTTL: 50 * time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := m.SubmitElection(ElectionRequest{Graph: "ring:8", Algo: "leastel", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, j := range jobs {
			if j.Snapshot().State == JobDone {
				done++
			}
		}
		if done == len(jobs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	time.Sleep(60 * time.Millisecond)
	if left := m.Jobs(); len(left) != 0 {
		t.Fatalf("%d finished jobs listed past the TTL: %+v", len(left), left)
	}
	for _, j := range jobs {
		if _, err := m.Job(j.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("job %s past the TTL: err %v, want ErrNotFound", j.ID, err)
		}
	}
}

// TestJobsNewestFirstPastAMillion: Jobs orders by admission, not by the
// ID's text, so j1000000 lists above j999999.
func TestJobsNewestFirstPastAMillion(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	m.seq = 999_998
	for i := 0; i < 3; i++ {
		if _, err := m.SubmitElection(ElectionRequest{Graph: "ring:8", Algo: "leastel", Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, st := range m.Jobs() {
		got = append(got, st.ID)
	}
	if got, want := strings.Join(got, " "), "j1000001 j1000000 j999999"; got != want {
		t.Errorf("Jobs lists %s, want %s", got, want)
	}
}

// TestExpvarEndpoint: /debug/vars serves the uled_* series.
func TestExpvarEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{Slots: 1})
	postJSON(t, ts.URL+"/v1/elections", `{"graph":"ring:8","algo":"leastel","seed":9}`)

	var vars struct {
		Elections  int64 `json:"uled_elections_total"`
		Goroutines int   `json:"uled_goroutines"`
	}
	if code := getJSON(t, ts.URL+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("debug/vars status %d", code)
	}
	if vars.Elections < 1 || vars.Goroutines < 1 {
		t.Fatalf("counters not live: %+v", vars)
	}
}

// TestArenaReuse: repeated requests for the same (graph, algo) hit the
// slot's cell instead of rebuilding state, and a new cell on a full slot
// rebinds an old one instead of preparing another.
func TestArenaReuse(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	req := ElectionRequest{Graph: "ring:64", Algo: "leastel", SmallIDs: true}
	h0, m0 := statPrepHits.Value(), statPrepMisses.Value()
	for seed := int64(1); seed <= 8; seed++ {
		req.Seed = seed
		if _, err := m.RunElection(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := statPrepHits.Value()-h0, statPrepMisses.Value()-m0
	if misses != 1 || hits != 7 {
		t.Fatalf("prepared cache: %d hits / %d misses over 8 identical requests, want 7 / 1", hits, misses)
	}
	for req.GraphSeed = 2; req.GraphSeed <= slotPrepCap; req.GraphSeed++ {
		if _, err := m.RunElection(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m0, r0 := statPrepMisses.Value(), statPrepRebinds.Value()
	if _, err := m.RunElection(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if misses, rebinds := statPrepMisses.Value()-m0, statPrepRebinds.Value()-r0; misses != 1 || rebinds != 1 {
		t.Fatalf("a new cell on a full slot: %d misses / %d rebinds, want 1 / 1 (no Prepare)", misses, rebinds)
	}
}

// TestSweepDefaultRoundsFollowCap: a sweep that names no max_rounds on a
// server whose round cap is below core.FrontEndMaxRounds runs every
// trial at that cap and echoes it in its spec, as an election does.
func TestSweepDefaultRoundsFollowCap(t *testing.T) {
	m := NewManager(Config{Slots: 1, MaxRounds: 64})
	defer m.Shutdown(context.Background())
	spec := harness.Spec{Algos: []string{"kingdom"}, Graphs: []string{"ring:8"}, Faults: []string{"crash:0.2"}, Trials: 8}
	p, err := m.validateSweep(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var rounds roundsEmitter
	rep, err := m.runSweep(context.Background(), p, &rounds)
	if err != nil {
		t.Fatal(err)
	}
	if rounds.max > 64 || rep.Spec.MaxRounds != 64 {
		t.Fatalf("a trial ran %d rounds, spec echoes max_rounds %d; want both at most the server's 64", rounds.max, rep.Spec.MaxRounds)
	}
}

// roundsEmitter records the most rounds any trial ran.
type roundsEmitter struct{ max int }

func (e *roundsEmitter) Begin(harness.Spec, int) error { return nil }
func (e *roundsEmitter) Trial(tr harness.TrialResult) error {
	e.max = max(e.max, tr.Rounds)
	return nil
}
func (e *roundsEmitter) End(*harness.Report) error { return nil }

// TestBrokenGuaranteeIs500: a run that breaks its Table 1 row is the
// server's failure, not the request's — a 500 whose envelope names the
// broken guarantee. No request breaks a row (TestCheckMatrix), so the
// mapping is pinned at writeError.
func TestBrokenGuaranteeIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: kingdom elected 2 leaders", core.ErrGuarantee))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || !strings.HasPrefix(eb.Error, core.ErrGuarantee.Error()) {
		t.Fatalf("status %d, body %s (%v); want 500 naming the guarantee", rec.Code, rec.Body, err)
	}
}

// TestRetryAfterOn503: every 503 (busy job table, draining server,
// draining healthz) carries a Retry-After header so clients back off
// instead of hot-looping; non-503 errors carry none.
func TestRetryAfterOn503(t *testing.T) {
	// The two writeError 503 sources, pinned directly.
	for _, err := range []error{ErrBusy, ErrShutdown} {
		rec := httptest.NewRecorder()
		writeError(rec, err)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("writeError(%v) status = %d, want 503", err, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != fmt.Sprint(RetryAfterSeconds) {
			t.Fatalf("writeError(%v) Retry-After = %q, want %d", err, got, RetryAfterSeconds)
		}
	}
	rec := httptest.NewRecorder()
	writeError(rec, badRequest("nope"))
	if rec.Header().Get("Retry-After") != "" {
		t.Fatalf("400 response carries Retry-After %q", rec.Header().Get("Retry-After"))
	}

	// End to end: a draining server 503s with the header on both the API
	// and healthz paths.
	m := NewManager(Config{Slots: 1})
	ts := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/elections", "application/json", strings.NewReader(`{"graph":"ring:8","algo":"leastel"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining election: status %d Retry-After %q, want 503 with header", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining healthz: status %d Retry-After %q, want 503 with header", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSweepOverCapRejectedBeforeExpansion: a sweep whose trial count is
// above the cap is a 400 decided by arithmetic — nothing is built from
// the spec first, so a sixty-byte body cannot make the server allocate a
// trial table (the allocation bound is what that used to break) — and a
// sweep under the cap streams the bytes it always did.
func TestSweepOverCapRejectedBeforeExpansion(t *testing.T) {
	m := NewManager(Config{Slots: 1, MaxTrials: 1000})
	defer m.Shutdown(context.Background())
	h := NewHandler(m, HandlerConfig{})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body)))
		return rec
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := post(`{"algos":["flood"],"graphs":["ring:4"],"trials":1000000}`)
	runtime.ReadMemStats(&m1)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1000000 trials") {
		t.Fatalf("over-cap sweep: status %d, body %s", rec.Code, rec.Body)
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<20 {
		t.Fatalf("rejecting a 10^6-trial sweep allocated %d bytes, want < 1 MiB", b)
	}
	// Counts no int can hold are over the cap too, sync and async alike.
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweeps", `{"algos":["flood"],"graphs":["ring:4"],"faults":["","crash:0.1","drop:0.1"],"trials":9000000000000000000}`},
		{"/v1/sweeps?async=1", `{"algos":["flood"],"graphs":["ring:4"],"trials":2000000000}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "above the server cap") {
			t.Fatalf("%s %s: status %d, body %s", tc.path, tc.body, rec.Code, rec.Body)
		}
	}

	rec = post(`{"name":"serve-golden","algos":["leastel"],"graphs":["ring:12","random:16:40"],"modes":["congest","async"],"faults":["","crash:0.2"],"trials":3,"seed":9,"small_ids":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("24-trial sweep: status %d, body %s", rec.Code, rec.Body)
	}
	const want = "866f36006ab826a1e3f8c785a05fb32a121d1d3753bb8efe118a7b2b2999a240"
	if got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())); got != want {
		t.Fatalf("24-trial sweep NDJSON: sha256 %s, want %s (%d bytes)", got, want, rec.Body.Len())
	}
}

// TestGraphOverCapRejectedBeforeBuild: a graph spec is a few bytes
// whatever it expands to — complete:20000 asks for 4·10⁸ CSR slots — so
// an election or a sweep naming one above the cap is a 400 decided by
// arithmetic, before the graph is built, and the cap moves with
// Config.MaxEdges.
func TestGraphOverCapRejectedBeforeBuild(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	defer m.Shutdown(context.Background())
	h := NewHandler(m, HandlerConfig{})
	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	for path, body := range map[string]string{
		"/v1/elections": `{"graph":"complete:20000","algo":"flood"}`,
		"/v1/sweeps":    `{"algos":["flood"],"graphs":["ring:8","complete:20000"],"trials":1}`,
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec := post(h, path, body)
		runtime.ReadMemStats(&m1)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "199990000 edges") {
			t.Fatalf("%s %s: status %d, body %s", path, body, rec.Code, rec.Body)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<20 {
			t.Fatalf("%s: rejecting complete:20000 allocated %d bytes, want < 1 MiB", path, b)
		}
	}
	// Many nodes and few edges are over the cap too; a malformed spec stays
	// the 400 it was.
	for _, g := range []string{"path:2000000", "ring:99999999999", "ring:2"} {
		if rec := post(h, "/v1/elections", fmt.Sprintf(`{"graph":%q,"algo":"flood"}`, g)); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", g, rec.Code, rec.Body)
		}
	}

	small := NewManager(Config{Slots: 1, MaxEdges: 100})
	defer small.Shutdown(context.Background())
	hs := NewHandler(small, HandlerConfig{})
	if rec := post(hs, "/v1/elections", `{"graph":"ring:24","algo":"flood"}`); rec.Code != http.StatusOK {
		t.Fatalf("ring:24 under a 100-edge cap: status %d, body %s", rec.Code, rec.Body)
	}
	if rec := post(hs, "/v1/elections", `{"graph":"ring:26","algo":"flood"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("ring:26 (26 nodes) under a 100-edge, 25-node cap: status %d, body %s", rec.Code, rec.Body)
	}
	if rec := post(hs, "/v1/elections", `{"graph":"complete:16","algo":"flood"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("complete:16 (120 edges) under a 100-edge cap: status %d, body %s", rec.Code, rec.Body)
	}
}

// TestExactDiameterCapOnHeldGraph: the exact-diameter cap holds however
// the slot comes by the graph — built for the request, borrowed from a
// cell of another algorithm, or the request's own cell — so a refusal
// never depends on what the slot served before. star:20000 has n·m above
// the cap and a diameter of 2.
func TestExactDiameterCapOnHeldGraph(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	defer m.Shutdown(context.Background())
	exact := ElectionRequest{Graph: "star:20000", Algo: "flood"}
	for i, c := range []struct {
		req     ElectionRequest
		refused bool
	}{
		{exact, true}, // built
		{ElectionRequest{Graph: "star:20000", Algo: "trivial"}, false},
		{exact, true}, // borrowed from the trivial cell
		{ElectionRequest{Graph: "star:20000", Algo: "flood", DiameterEstimate: true}, false},
		{exact, true}, // the flood cell's own
	} {
		_, err := m.RunElection(context.Background(), c.req)
		var reqErr *RequestError
		if refused := errors.As(err, &reqErr) && strings.Contains(err.Error(), "diameter_estimate"); refused != c.refused {
			t.Errorf("request %d %+v: err = %v, want refused %v", i, c.req, err, c.refused)
		}
	}
}
