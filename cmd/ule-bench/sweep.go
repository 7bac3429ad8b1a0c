package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ule/internal/fleet"
	"ule/internal/harness"
)

// sweepWorkers is the in-process pool size and the fleet's process count:
// the load never exceeds this host's two CPUs.
const sweepWorkers = 2

// sweepSpec is the spec of sweep-small and fleet-small: 54 cells of 16-24
// node graphs, round-capped as experiment E17 is (an uncapped crash cell
// spins to 1<<18 ticks).
func sweepSpec(seed int64, trials int) harness.Spec {
	return harness.Spec{
		Name:      "ule-bench",
		Algos:     []string{"leastel", "flood", "kingdom"},
		Graphs:    []string{"ring:16", "random:24:60", "torus:4x4"},
		Modes:     []string{"congest", "async"},
		Delays:    []string{"unit", "random:4"},
		Faults:    []string{"none", "crash:0.1"},
		Trials:    trials,
		Seed:      seed,
		MaxRounds: 4096,
		SmallIDs:  true,
	}
}

// sweepWorkload is sweep-small (one in-process harness.Run per iteration)
// and fleet-small (the same spec through fleet.Run and exec'd ule-fleet
// workers). Every iteration runs the same spec, so every output must hash
// the same — and, for the fleet, the same as the in-process reference.
type sweepWorkload struct {
	fleet bool

	spec   harness.Spec
	total  int
	dir    string // of the current set-up
	bin    string // ule-fleet
	rss    *childRSSSampler
	report *harness.Report

	refSeconds []float64 // in-process reference sweeps of the set-ups
	jobs       []sweepJob
	jobSeconds []float64
	fleetRes   []*fleet.Result
	workerCPU  []float64 // per job, of the waited-for worker processes
}

type sweepJob struct{ dir, bin, json string }

func (w *sweepWorkload) build(c *runCtx) (err error) {
	if !w.fleet {
		return nil
	}
	if w.bin, err = buildBinary(c.root, "ule-fleet"); err == nil {
		w.rss = startChildRSSSampler(50 * time.Millisecond)
	}
	return err
}

func (w *sweepWorkload) setUp(c *runCtx, op int) error {
	w.spec = sweepSpec(c.seed, c.sz.SweepTrials)
	w.dir = filepath.Join(c.dir, fmt.Sprintf("setup-%d", op))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(w.spec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(w.dir, "spec.json"), data, 0o644); err != nil {
		return err
	}
	id := c.tr.begin("harness.Validate", noSpan, op)
	w.total, err = w.spec.Validate()
	c.tr.end(id)
	if err != nil {
		return err
	}
	// One sweep before the window. For sweep-small it is a tenth of the
	// size and only warms the path; for fleet-small it is the in-process
	// reference the merged output must equal byte for byte.
	spec := w.spec
	if !w.fleet {
		spec.Trials = max(1, spec.Trials/10)
	}
	t0 := time.Now()
	job, rep, err := w.inProcess(c, spec, filepath.Join(w.dir, "ref"), noSpan, op)
	if err != nil {
		return err
	}
	if w.fleet {
		w.refSeconds = append(w.refSeconds, time.Since(t0).Seconds())
		if err := w.hashJob(c, job, "sweep."); err != nil {
			return err
		}
	}
	w.report = rep
	return nil
}

// inProcess runs spec through harness.Run with the binary emitter on a
// real file at the default checkpoint cadence, then exports the JSON
// document from it.
func (w *sweepWorkload) inProcess(c *runCtx, spec harness.Spec, dir string, parent, op int) (sweepJob, *harness.Report, error) {
	job := sweepJob{dir: dir, bin: filepath.Join(dir, "sweep.ulsb"), json: filepath.Join(dir, "sweep.json")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return job, nil, err
	}
	f, err := os.Create(job.bin)
	if err != nil {
		return job, nil, err
	}
	id := c.tr.begin("harness.Run", parent, op)
	em := &tracedEmitter{Emitter: harness.NewBinaryEmitter(f, harness.BinaryOptions{}), tr: c.tr, parent: id, op: op}
	rep, err := harness.Run(spec, harness.RunConfig{Workers: sweepWorkers, Emitters: []harness.Emitter{em}})
	c.tr.end(id)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return job, nil, err
	}
	id = c.tr.begin("harness.ExportJSON", parent, op)
	err = exportJSON(job.bin, job.json)
	c.tr.end(id)
	return job, rep, err
}

func exportJSON(binPath, jsonPath string) error {
	in, err := os.Open(binPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := harness.ExportJSON(in, out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// tracedEmitter records one harness.emit.bin span per emitter call, as
// children of the harness.Run span that drives it.
type tracedEmitter struct {
	harness.Emitter
	tr         *tracer
	parent, op int
}

func (e *tracedEmitter) span() int { return e.tr.begin("harness.emit.bin", e.parent, e.op) }

func (e *tracedEmitter) Begin(spec harness.Spec, total int) error {
	defer e.tr.end(e.span())
	return e.Emitter.Begin(spec, total)
}

func (e *tracedEmitter) Trial(tr harness.TrialResult) error {
	defer e.tr.end(e.span())
	return e.Emitter.Trial(tr)
}

func (e *tracedEmitter) End(rep *harness.Report) error {
	defer e.tr.end(e.span())
	return e.Emitter.End(rep)
}

func (w *sweepWorkload) tearDown(c *runCtx, stop bool) error {
	if stop && w.rss != nil {
		w.rss.close()
		w.rss = nil
	}
	return os.RemoveAll(w.dir)
}

// step is one whole sweep job. Outputs are kept for verify.
func (w *sweepWorkload) step(c *runCtx, i, _, op int) (int, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("job-%d", i))
	root := c.tr.begin("bench.job", noSpan, op)
	defer c.tr.end(root)
	t0 := time.Now()
	var job sweepJob
	if w.fleet {
		cpu0 := cpuSeconds(syscall.RUSAGE_CHILDREN)
		res, j, err := w.fleetRun(c, dir, nil, root, op)
		if err != nil {
			return 0, err
		}
		job = j
		w.fleetRes = append(w.fleetRes, res)
		w.workerCPU = append(w.workerCPU, cpuSeconds(syscall.RUSAGE_CHILDREN)-cpu0)
	} else {
		j, rep, err := w.inProcess(c, w.spec, dir, root, op)
		if err != nil {
			return 0, err
		}
		job = j
		c.check(rep.Errors == 0, "job %d: %d trial errors", i, rep.Errors)
		w.report = rep
	}
	d := time.Since(t0)
	c.latency(d)
	w.jobs = append(w.jobs, job)
	w.jobSeconds = append(w.jobSeconds, d.Seconds())
	return w.total, nil
}

// fleetRun runs the spec across two exec'd `ule-fleet -worker` processes
// with fleet's defaults for unit size, heartbeat and checkpoint cadence.
func (w *sweepWorkload) fleetRun(c *runCtx, dir string, chaos *fleet.ChaosPlan, parent, op int) (*fleet.Result, sweepJob, error) {
	job := sweepJob{dir: dir, bin: filepath.Join(dir, "sweep.ulsb"), json: filepath.Join(dir, "sweep.json")}
	shards := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shards, 0o755); err != nil {
		return nil, job, err
	}
	id := c.tr.begin("fleet.Run", parent, op)
	res, err := fleet.Run(fleet.Config{
		Spec: w.spec, Workers: sweepWorkers, Dir: shards,
		Out: job.bin, JSONOut: job.json,
		WorkerArgv: []string{w.bin, "-worker"}, Chaos: chaos,
	})
	c.tr.end(id)
	if err != nil {
		return nil, job, err
	}
	c.check(len(res.Incomplete) == 0, "fleet: incomplete ranges %v", res.Incomplete)
	return res, job, nil
}

func (w *sweepWorkload) busyCPU(*runCtx) float64 {
	if w.fleet {
		return selfCPU() + cpuSeconds(syscall.RUSAGE_CHILDREN)
	}
	return selfCPU()
}

func (w *sweepWorkload) peakRSS(*runCtx) float64 {
	if w.rss != nil {
		return max(selfRSS(), w.rss.peakMiB())
	}
	return selfRSS()
}

func sha256File(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	return hex.EncodeToString(h.Sum(nil)), n, err
}

// hashJob hashes a job's two output files into c.hashes under
// prefix+"bin"/"json" — or, when a hash is already there, checks that this
// job produced the same bytes.
func (w *sweepWorkload) hashJob(c *runCtx, job sweepJob, prefix string) error {
	for key, path := range map[string]string{"bin": job.bin, "json": job.json} {
		sum, size, err := sha256File(path)
		if err != nil {
			return err
		}
		if prev, seen := c.hashes[prefix+key]; seen {
			c.check(prev == sum, "%s: sha256 %s, want %s", path, sum[:12], prev[:12])
		} else {
			c.hashes[prefix+key] = sum
		}
		c.counts[prefix+key+"_bytes"] = size
	}
	return nil
}

// verify checks every job's outputs: the binary is a complete document of
// the right size, the JSON parses with the right trial count, and both
// files are byte-identical across jobs (and to the fleet's reference).
func (w *sweepWorkload) verify(c *runCtx) error {
	for _, job := range w.jobs {
		ck, err := harness.InspectBinary(job.bin)
		c.check(err == nil && ck.Done && ck.Completed == w.total, "%s: not a complete %d-trial document (%v)", job.bin, w.total, err)
		f, err := os.Open(job.json)
		if err != nil {
			return err
		}
		n := 0
		err = harness.DecodeTrials(f, func(harness.TrialResult) error { n++; return nil })
		f.Close()
		c.check(err == nil && n == w.total, "%s: %d trials, want %d (%v)", job.json, n, w.total, err)
		if err := w.hashJob(c, job, "sweep."); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepWorkload) probes(c *runCtx) error {
	c.layer["harness.validate_ms"] = median(msPerOp(c.tr.spans, "harness.Validate"))
	c.layer["harness.export_json_ms"] = median(msPerOp(c.windowSpans(), "harness.ExportJSON"))
	last := w.jobs[len(w.jobs)-1]
	total := float64(w.total)
	c.layer["harness.bytes_per_trial.bin"] = float64(c.counts["sweep.bin_bytes"]) / total
	c.layer["harness.bytes_per_trial.json"] = float64(c.counts["sweep.json_bytes"]) / total
	if w.fleet {
		return w.fleetProbes(c, last)
	}

	// Simulation alone: Run with no emitters at one and two workers, on a
	// third of the trials.
	spec := w.spec
	spec.Trials = max(1, spec.Trials/3)
	var ms0, ms1 runtime.MemStats
	var rate [3]float64
	for _, workers := range []int{1, 2} {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		id := c.tr.begin("harness.Run.sim-only", noSpan, probeOp)
		rep, err := harness.Run(spec, harness.RunConfig{Workers: workers})
		c.tr.end(id)
		if err != nil {
			return err
		}
		rate[workers] = float64(rep.Total) / time.Since(t0).Seconds()
		if workers == 1 {
			runtime.ReadMemStats(&ms1)
			c.layer["harness.allocs_per_trial"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.Total)
		}
	}
	c.layer["harness.sim_only_trials_per_s.w1"] = rate[1]
	c.layer["harness.sim_only_trials_per_s.w2"] = rate[2]
	c.layer["harness.scale_eff"] = rate[2] / (2 * rate[1])

	// Decode one job's trials, then replay them through each emitter.
	trials := make([]harness.TrialResult, 0, w.total)
	f, err := os.Open(last.bin)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = harness.DecodeBinaryTrials(f, func(tr harness.TrialResult) error { trials = append(trials, tr); return nil })
	c.layer["harness.decode_ns_per_trial"] = float64(time.Since(t0)) / total
	f.Close()
	if err != nil {
		return err
	}
	replay, err := os.Create(filepath.Join(w.dir, "replay.ulsb"))
	if err != nil {
		return err
	}
	defer replay.Close()
	for _, e := range []struct {
		name string
		em   harness.Emitter
	}{
		{"bin", harness.NewBinaryEmitter(replay, harness.BinaryOptions{})},
		{"json", harness.NewJSONEmitter(io.Discard)},
		{"ndjson", harness.NewNDJSONEmitter(io.Discard)},
		{"csv", harness.NewCSVEmitter(io.Discard)},
	} {
		t0 := time.Now()
		if err := e.em.Begin(w.spec, w.total); err != nil {
			return err
		}
		for _, tr := range trials {
			if err := e.em.Trial(tr); err != nil {
				return err
			}
		}
		if err := e.em.End(w.report); err != nil {
			return err
		}
		c.layer["harness.emit_ns_per_trial."+e.name] = float64(time.Since(t0)) / total
	}
	return nil
}

func (w *sweepWorkload) fleetProbes(c *runCtx, last sweepJob) error {
	// The base of the ratio is the in-process reference sweep of set-up:
	// same spec, same two workers, same emitters, same host, same run.
	c.layer["fleet.overhead_ratio"] = median(w.jobSeconds) / median(w.refSeconds)
	var retries, reassign int
	for _, r := range w.fleetRes {
		retries += r.Retries
		reassign += r.Reassignments
	}
	c.layer["fleet.units"] = float64(w.fleetRes[0].Units)
	c.layer["fleet.retries"] = float64(retries)
	c.layer["fleet.reassignments"] = float64(reassign)
	c.layer["fleet.worker_cpu_s"] = median(w.workerCPU)

	// harness.MergeShards over the shards of the last clean job.
	shards, err := filepath.Glob(filepath.Join(last.dir, "shards", "unit-*.ulss"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	id := c.tr.begin("harness.MergeShards", noSpan, probeOp)
	_, err = harness.MergeShards(w.spec, shards, harness.MergeConfig{
		Emitters: []harness.Emitter{harness.NewBinaryEmitter(io.Discard, harness.BinaryOptions{})},
	})
	c.tr.end(id)
	if err != nil {
		return err
	}
	c.layer["harness.merge_ms"] = time.Since(t0).Seconds() * 1e3

	// One worker over a one-trial range: exec, spec load, graph build,
	// shard create and fsync, exit.
	var spawn []float64
	for i := 0; i < 5; i++ {
		shard := filepath.Join(w.dir, fmt.Sprintf("spawn-%d.ulss", i))
		t0 := time.Now()
		id := c.tr.begin("fleet.worker.spawn", noSpan, probeOp)
		out, err := exec.Command(w.bin, "-worker", "-spec", filepath.Join(w.dir, "spec.json"),
			"-start", "0", "-count", "1", "-shard", shard, "-checkpoint-every", "0").CombinedOutput()
		c.tr.end(id)
		if err != nil {
			return fmt.Errorf("ule-fleet -worker: %v\n%s", err, out)
		}
		spawn = append(spawn, time.Since(t0).Seconds()*1e3)
	}
	c.layer["fleet.spawn_ms"] = median(spawn)

	// A run with two scheduled worker kills: still byte-identical, and
	// what it costs beyond a clean run is the recovery.
	t0 = time.Now()
	res, job, err := w.fleetRun(c, filepath.Join(w.dir, "chaos"), &fleet.ChaosPlan{Seed: 42, Kill: 1, MaxActions: 2}, noSpan, probeOp)
	if err != nil {
		return err
	}
	chaos := time.Since(t0).Seconds()
	if err := w.hashJob(c, job, "sweep."); err != nil {
		return err
	}
	c.check(res.Kills > 0, "chaos run injected no kill")
	if res.Kills > 0 {
		c.layer["fleet.recovery_ms_per_kill"] = (chaos - median(w.jobSeconds)) * 1e3 / float64(res.Kills)
	}
	return nil
}
