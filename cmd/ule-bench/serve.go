package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ule/internal/harness"
	"ule/internal/serve"
	"ule/internal/sim"
)

// serveClients is the closed loop's width: two keep-alive connections,
// each sending its next request only when the previous reply is in. The
// callers of uled are scripts that wait for a reply, and two clients are
// all the load this two-CPU host can generate without the generator
// starving the server it measures.
const serveClients = 2

// verifyEvery keeps every 64th election body for the byte-equality check
// against an in-process Manager.RunElection.
const verifyEvery = 64

type reqKind int

const (
	hotElection reqKind = iota
	coldElection
	sweepRequest
	numKinds
)

var kindNames = [numKinds]string{"hot", "cold", "sweep"}

// hotCells are the eight (graph, algorithm, model) cells of the hot 80 %:
// their graphs and Prepared arenas fit every slot cache many times over.
var hotCells = []serve.ElectionRequest{
	{Graph: "ring:64", Algo: "leastel"},
	{Graph: "ring:64", Algo: "flood"},
	{Graph: "ring:64", Algo: "kingdom", Model: "async+random:4"},
	{Graph: "torus:8x8", Algo: "leastel"},
	{Graph: "torus:8x8", Algo: "flood"},
	{Graph: "torus:8x8", Algo: "kingdom"},
	{Graph: "random:64:256", Algo: "leastel", Model: "async+random:4"},
	{Graph: "random:64:256", Algo: "flood"},
}

// coldGraphSeeds is the range cold requests draw graph_seed from: 4096
// distinct random:64:256 instances against 128-entry slot caches.
const coldGraphSeeds = 4096

// request is one generated request of the stream.
type request struct {
	kind reqKind
	path string
	body []byte
	req  serve.ElectionRequest // elections only
}

// requestStream generates one client's requests from (seed, client): 80 %
// hot elections, 15 % cold elections, 5 % NDJSON-streamed 24-trial sweeps.
type requestStream struct{ rng *rand.Rand }

func newRequestStream(seed int64, client int) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(sim.NodeSeed(seed, client)))}
}

func (s *requestStream) next() request {
	p := s.rng.Intn(100)
	runSeed := 1 + s.rng.Int63n(1<<31)
	switch {
	case p < 80:
		req := hotCells[s.rng.Intn(len(hotCells))]
		req.Seed, req.SmallIDs = runSeed, true
		return electionRequest(hotElection, req)
	case p < 95:
		return electionRequest(coldElection, serve.ElectionRequest{
			Graph: "random:64:256", GraphSeed: 1 + s.rng.Int63n(coldGraphSeeds),
			Algo: "leastel", Seed: runSeed, SmallIDs: true,
		})
	}
	body, _ := json.Marshal(harness.Spec{
		Algos: []string{"leastel", "flood"}, Graphs: []string{"ring:32"},
		Trials: sweepRequestTrials / 2, Seed: runSeed, SmallIDs: true,
	})
	return request{kind: sweepRequest, path: "/v1/sweeps", body: body}
}

const sweepRequestTrials = 24

func electionRequest(kind reqKind, req serve.ElectionRequest) request {
	body, _ := json.Marshal(req)
	return request{kind: kind, path: "/v1/elections", body: body, req: req}
}

// client is one closed-loop connection and everything it has observed;
// the workload folds it into the run between slices.
type client struct {
	stream   *requestStream
	lat      [numKinds][]float64 // ms
	refused  int
	notes    []string
	n        int // elections sent, for the every-64th rule
	kept     []keptReply
	badSweep int
	// Hot latencies of the window by whether the request was traced.
	hotTraced, hotUntraced []float64
}

type keptReply struct {
	req  serve.ElectionRequest
	body []byte
}

// serveWorkload is serve-mix.
type serveWorkload struct {
	bin   string
	mgr   *serve.Manager // in-process twin, for verification and probes
	cmd   *exec.Cmd
	base  string
	http  *http.Client
	cl    [serveClients]*client
	vars0 map[string]float64
	dir   string
}

func (w *serveWorkload) build(c *runCtx) (err error) {
	w.mgr = serve.NewManager(serve.Config{})
	w.http = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2 * serveClients, MaxIdleConnsPerHost: 2 * serveClients},
		Timeout:   60 * time.Second,
	}
	w.bin, err = buildBinary(c.root, "uled")
	return err
}

// setUp boots uled on an ephemeral port and warms it with warmRequests
// requests of the mix.
func (w *serveWorkload) setUp(c *runCtx, op int) error {
	w.dir = filepath.Join(c.dir, fmt.Sprintf("setup-%d", op))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	addrFile := filepath.Join(w.dir, "addr")
	id := c.tr.begin("bench.spawn-uled", noSpan, op)
	w.cmd = exec.Command(w.bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	w.cmd.Stderr = os.Stderr
	if err := w.cmd.Start(); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			w.base = "http://" + string(data)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("uled did not write %s within 10 s", addrFile)
		}
	}
	c.tr.end(id)
	for i := range w.cl {
		// Warm-up draws from its own streams, so the measured streams
		// start at their first request whatever the warm-up length.
		w.cl[i] = &client{stream: newRequestStream(c.seed, -10-i)}
	}
	id = c.tr.begin("bench.warm-up", noSpan, op)
	w.drive(c, noSpan, op, func(cl *client) bool { return cl.n < c.sz.WarmRequests/serveClients })
	c.tr.end(id)
	for i, cl := range w.cl {
		if cl.refused > 0 {
			return fmt.Errorf("warm-up: %d requests refused: %v", cl.refused, cl.notes)
		}
		w.cl[i] = &client{stream: newRequestStream(c.seed, i)}
	}
	if c.traced {
		vars, err := w.vars()
		if err != nil {
			return err
		}
		w.vars0 = vars
	}
	return nil
}

// drive runs the closed loop on every client until more says stop.
func (w *serveWorkload) drive(c *runCtx, parent, op int, more func(*client) bool) {
	var wg sync.WaitGroup
	for _, cl := range w.cl {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for more(cl) {
				w.send(c, cl, cl.stream.next(), parent, op)
			}
		}(cl)
	}
	wg.Wait()
}

// send posts one request, waits for the whole reply, and records it.
func (w *serveWorkload) send(c *runCtx, cl *client, r request, parent, op int) {
	t0 := time.Now()
	id := c.tr.begin("serve.http."+kindNames[r.kind], parent, op)
	code, body, err := w.post(r.path, r.body)
	c.tr.end(id)
	d := time.Since(t0)
	if r.kind != sweepRequest {
		cl.n++
	}
	if err != nil || code != http.StatusOK {
		cl.refused++
		if len(cl.notes) < 4 {
			cl.notes = append(cl.notes, fmt.Sprintf("%s %s: status %d, %v", r.path, r.body, code, err))
		}
		return
	}
	cl.lat[r.kind] = append(cl.lat[r.kind], d.Seconds()*1e3)
	switch {
	case r.kind != hotElection:
	case id != noSpan:
		cl.hotTraced = append(cl.hotTraced, d.Seconds())
	default:
		cl.hotUntraced = append(cl.hotUntraced, d.Seconds())
	}
	if r.kind == sweepRequest {
		// header line + one line per trial + groups trailer
		if bytes.Count(body, []byte("\n")) != sweepRequestTrials+2 || !bytes.Contains(body, []byte(`"groups"`)) {
			cl.badSweep++
		}
	} else if cl.n%verifyEvery == 0 {
		cl.kept = append(cl.kept, keptReply{r.req, body})
	}
}

func (w *serveWorkload) post(path string, body []byte) (int, []byte, error) {
	resp, err := w.http.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// vars reads the numeric expvars of the spawned uled.
func (w *serveWorkload) vars() (map[string]float64, error) {
	resp, err := w.http.Get(w.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

// tearDown sends SIGTERM; uled must drain and exit 0.
func (w *serveWorkload) tearDown(c *runCtx, stop bool) error {
	if stop && w.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.mgr.Shutdown(ctx)
		cancel()
		w.mgr = nil
	}
	if w.cmd == nil || w.cmd.Process == nil {
		return nil
	}
	w.http.CloseIdleConnections()
	cmd := w.cmd
	w.cmd = nil
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		c.check(err == nil, "uled after SIGTERM: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		c.check(false, "uled did not drain within 30 s of SIGTERM")
	}
	return os.RemoveAll(w.dir)
}

// step is one slice of the closed loop.
func (w *serveWorkload) step(c *runCtx, _, _, op int) (int, error) {
	before := 0
	for _, cl := range w.cl {
		before += len(cl.lat[hotElection]) + len(cl.lat[coldElection])
	}
	root := c.tr.begin("bench.slice", noSpan, op)
	deadline := time.Now().Add(c.sz.Slice)
	w.drive(c, root, op, func(*client) bool { return time.Now().Before(deadline) })
	c.tr.end(root)
	after := 0
	for _, cl := range w.cl {
		after += len(cl.lat[hotElection]) + len(cl.lat[coldElection])
	}
	return after - before, nil
}

func (w *serveWorkload) busyCPU(*runCtx) float64 {
	v, _ := cpuSecondsOf(w.cmd.Process.Pid)
	return v
}

func (w *serveWorkload) peakRSS(*runCtx) float64 {
	v, _ := hwmMiB(w.cmd.Process.Pid)
	return v
}

// traceOverhead prices tracing on the hot requests alone. The driver's
// default — time per election of traced slices over untraced ones — moves
// by several percent with how many 7 ms sweeps a half-second slice happens
// to draw; the median of some thousand hot latencies does not.
func (w *serveWorkload) traceOverhead() float64 {
	var on, off []float64
	for _, cl := range w.cl {
		on = append(on, cl.hotTraced...)
		off = append(off, cl.hotUntraced...)
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// kind gathers one request kind's latencies over all clients.
func (w *serveWorkload) kind(k reqKind) []float64 {
	var out []float64
	for _, cl := range w.cl {
		out = append(out, cl.lat[k]...)
	}
	return out
}

// verify folds the clients into the run: every request must have been
// answered 200, every sweep stream complete, and every kept election body
// byte-equal to what an in-process Manager.RunElection returns for the
// same request.
func (w *serveWorkload) verify(c *runCtx) error {
	for _, cl := range w.cl {
		answered := 0
		for k := range cl.lat {
			answered += len(cl.lat[k])
		}
		c.attempted += answered + cl.refused
		c.failed += cl.refused
		c.notes = append(c.notes, cl.notes...)
		c.check(cl.badSweep == 0, "%d sweep streams incomplete", cl.badSweep)
		for _, k := range cl.kept {
			res, err := w.mgr.RunElection(context.Background(), k.req)
			if err != nil {
				c.check(false, "in-process %+v: %v", k.req, err)
				continue
			}
			want, _ := json.Marshal(res)
			c.check(bytes.Equal(append(want, '\n'), k.body), "served body differs from in-process for %+v", k.req)
		}
	}
	c.latencies = append(w.kind(hotElection), w.kind(coldElection)...)
	return nil
}

func (w *serveWorkload) probes(c *runCtx) error {
	vars1, err := w.vars()
	if err != nil {
		return err
	}
	delta := func(key string) float64 { return vars1[key] - w.vars0[key] }
	ratio := func(hits, misses string) float64 {
		if total := delta(hits) + delta(misses); total > 0 {
			return delta(hits) / total
		}
		return 0
	}
	c.layer["serve.graph_hit_ratio"] = ratio("uled_graph_reuse_hits", "uled_graph_reuse_misses")
	c.layer["serve.prepared_hit_ratio"] = ratio("uled_prepared_reuse_hits", "uled_prepared_reuse_misses")
	c.layer["serve.goroutines_delta"] = delta("uled_goroutines")
	c.layer["serve.cold_election_ms_p50"] = percentile(w.kind(coldElection), 50)
	c.layer["serve.sweep_ms_p50"] = percentile(w.kind(sweepRequest), 50)
	refused := 0
	for _, cl := range w.cl {
		refused += cl.refused
	}
	c.layer["serve.refused"] = float64(refused)

	// The same hot requests three ways, one at a time: straight into
	// core.Prepared.RunInto, through the in-process Manager, and over HTTP
	// to the spawned uled. The differences are serve's and HTTP's own cost.
	cells := make([]*cell, len(hotCells))
	for i, h := range hotCells {
		cells[i] = &cell{algo: h.Algo, graph: h.Graph, model: h.Model, smallIDs: true}
		if err := cells[i].bind(c, 1, true, noSpan, probeOp); err != nil {
			return err
		}
	}
	// The hot cells cost between 40 µs (flood) and 1.6 ms (async leastel),
	// so a difference of medians over the mix would mostly say where each
	// median fell between those modes. The overheads are medians of the
	// per-request differences instead.
	timed := func(name string, call func() error) (float64, error) {
		t0 := time.Now()
		id := c.tr.begin(name, noSpan, probeOp)
		err := call()
		c.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return float64(time.Since(t0)) / 1e3, nil
	}
	var inproc, overDirect, overInproc []float64
	var res sim.Result
	stream := newRequestStream(c.seed, -1)
	for len(inproc) < c.sz.ProbeReps {
		r := stream.next()
		if r.kind != hotElection {
			continue
		}
		var cl *cell
		for j, h := range hotCells {
			if h.Graph == r.req.Graph && h.Algo == r.req.Algo {
				cl = cells[j]
			}
		}
		ro, err := cl.opts(r.req.Seed)
		if err != nil {
			return err
		}
		ro.MaxRounds = 1 << 18
		direct, err := timed("core.RunInto", func() error { return cl.prep.RunInto(ro, &res) })
		if err != nil {
			return err
		}
		viaManager, err := timed("serve.RunElection", func() error {
			_, err := w.mgr.RunElection(context.Background(), r.req)
			return err
		})
		if err != nil {
			return err
		}
		viaHTTP, err := timed("serve.http.probe", func() error {
			code, _, err := w.post(r.path, r.body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			return err
		})
		if err != nil {
			return err
		}
		inproc = append(inproc, viaManager)
		overDirect = append(overDirect, viaManager-direct)
		overInproc = append(overInproc, viaHTTP-viaManager)
	}
	c.layer["serve.run_election_us_p50"] = median(inproc)
	c.layer["serve.overhead_us"] = median(overDirect)
	c.layer["serve.http_overhead_us"] = median(overInproc)
	return nil
}
