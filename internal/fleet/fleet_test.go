package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ule/internal/core"
	"ule/internal/harness"
)

// TestMain doubles as the worker executable: the coordinator re-execs
// this test binary with worker flags, and the workers inherit
// ULE_FLEET_WORKER=1 from the test that runs them (fleetConfig),
// exercising the real exec/heartbeat/crash path rather than an in-process
// fake.
func TestMain(m *testing.M) {
	if os.Getenv("ULE_FLEET_WORKER") == "1" {
		os.Exit(RunWorker(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fleetSpec is small enough for real-process tests but crosses
// graphs, execution models and fault schedules: 24 trials.
func fleetSpec() harness.Spec {
	return harness.Spec{
		Name:     "fleet-test",
		Algos:    []string{"leastel"},
		Graphs:   []string{"ring:12", "random:16:40"},
		Modes:    []string{"congest", "async"},
		Faults:   []string{"", "crash:0.2"},
		Trials:   3,
		Seed:     9,
		SmallIDs: true,
	}
}

const testCadence = 4

// fleetConfig is a Config whose workers are this test binary. The worker
// switch is set per test, not for the whole binary: the fuzzing engine
// re-execs the binary too, and must not find it.
func fleetConfig(t *testing.T, spec harness.Spec) Config {
	t.Helper()
	t.Setenv("ULE_FLEET_WORKER", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return Config{
		Spec:            spec,
		Workers:         3,
		UnitTrials:      5,
		CheckpointEvery: testCadence,
		Dir:             dir,
		Out:             filepath.Join(dir, "merged.ulsb"),
		WorkerArgv:      []string{exe},
	}
}

// TestRetryDelay pins the retry schedule: 10ms, doubling, capped at 300ms.
func TestRetryDelay(t *testing.T) {
	ms := time.Millisecond
	for attempt, want := range []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 300 * ms, 300 * ms} {
		if got := retryDelay(attempt); got != want {
			t.Errorf("retryDelay(%d) = %v, want %v", attempt, got, want)
		}
	}
	if got := retryDelay(-3); got != 10*ms {
		t.Errorf("retryDelay(-3) = %v, want 10ms", got)
	}
}

// refRun produces the single-process reference document every fleet run
// must reproduce byte for byte.
func refRun(t *testing.T, spec harness.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	opt := harness.BinaryOptions{CheckpointEvery: testCadence}
	_, err := harness.Run(spec, harness.RunConfig{
		Emitters: []harness.Emitter{harness.NewBinaryEmitter(&buf, opt)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkMerged(t *testing.T, cfg Config, want []byte) {
	t.Helper()
	got, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged binary differs from single-process run: %d vs %d bytes", len(got), len(want))
	}
}

func TestFleetByteIdentical(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.JSONOut = filepath.Join(cfg.Dir, "merged.json")

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := refRun(t, spec)
	checkMerged(t, cfg, want)

	if res.Retries != 0 || res.Reassignments != 0 {
		t.Fatalf("chaos-free run reported retries=%d reassignments=%d", res.Retries, res.Reassignments)
	}
	if res.Units != 5 || res.Total != 24 {
		t.Fatalf("units=%d total=%d, want 5 units over 24 trials", res.Units, res.Total)
	}
	if res.Report == nil || res.Report.Total != 24 {
		t.Fatalf("missing or wrong merged report: %+v", res.Report)
	}

	var wantJSON bytes.Buffer
	if err := harness.ExportJSON(bytes.NewReader(want), &wantJSON); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := os.ReadFile(cfg.JSONOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
		t.Fatal("merged JSON export differs from single-process export")
	}
}

func TestFleetWorkerCountInvariance(t *testing.T) {
	spec := fleetSpec()
	want := refRun(t, spec)
	for _, workers := range []int{1, 2, 4} {
		cfg := fleetConfig(t, spec)
		cfg.Workers = workers
		if _, err := Run(cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkMerged(t, cfg, want)
	}
}

// TestFleetKillChaos is the fleet's chaos gate (make fleet-chaos): a
// 96-trial sweep across algorithms, graph families, execution models and
// fault schedules — big enough that every worker holds several units —
// through worker processes at 1, 2 and 4 workers in units of 8 trials,
// then in 24 units of 4 on 2 workers (each process serves many leases,
// and the ones started after a kill serve the rest). Every leg has two
// scheduled worker kills, retries each killed unit, and merges a binary
// byte-identical to one in-process run.
func TestFleetKillChaos(t *testing.T) {
	spec := harness.Spec{
		Name:     "fleet-gate",
		Algos:    []string{"leastel", "flood"},
		Graphs:   []string{"ring:16", "random:24:60"},
		Modes:    []string{"congest", "async"},
		Faults:   []string{"", "crash:0.2"},
		Trials:   6,
		Seed:     5,
		SmallIDs: true,
	}
	want := refRun(t, spec)
	for _, leg := range []struct{ workers, unit int }{{1, 8}, {2, 8}, {4, 8}, {2, 4}} {
		cfg := fleetConfig(t, spec)
		cfg.Workers, cfg.UnitTrials = leg.workers, leg.unit
		cfg.HeartbeatTimeout = 5 * time.Second
		cfg.Chaos = &ChaosPlan{Seed: 42, Kill: 1, MaxActions: 2}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d unit=%d: %v", leg.workers, leg.unit, err)
		}
		if res.Units != 96/leg.unit || res.Kills != 2 || res.Retries < 2 {
			t.Fatalf("workers=%d unit=%d: %d units, kills = %d, retries = %d; want %d units, 2 kills and at least one retry per kill",
				leg.workers, leg.unit, res.Units, res.Kills, res.Retries, 96/leg.unit)
		}
		checkMerged(t, cfg, want)
	}
}

func TestFleetStallChaos(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Chaos = &ChaosPlan{Seed: 7, Stall: 1, MaxActions: 1}
	cfg.HeartbeatTimeout = 2 * time.Second

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", res.Stalls)
	}
	if res.Reassignments != 1 {
		t.Fatalf("reassignments = %d, want 1 (watchdog must revoke the hung lease)", res.Reassignments)
	}
	checkMerged(t, cfg, refRun(t, spec))
}

func TestFleetCorruptChaos(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Chaos = &ChaosPlan{Seed: 3, Corrupt: 1, MaxActions: 1}

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", res.Corruptions)
	}
	if res.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (corrupt shard must be rejected and redone)", res.Retries)
	}
	checkMerged(t, cfg, refRun(t, spec))
}

// TestFleetMixedChaos drives every fault kind in one run (probabilities
// sum to 1, so every unit draws a fault) and still demands byte
// identity; it also pins the schedule's seed-determinism.
func TestFleetMixedChaos(t *testing.T) {
	spec := fleetSpec()
	plan := &ChaosPlan{Seed: 11, Kill: 0.4, Stall: 0.3, Corrupt: 0.3}

	units := partition(24, 5)
	if a, b := plan.actions(units), plan.actions(units); !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos schedule not deterministic: %v vs %v", a, b)
	}

	cfg := fleetConfig(t, spec)
	cfg.Chaos = plan
	cfg.HeartbeatTimeout = 2 * time.Second

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Kills + res.Stalls + res.Corruptions; got != res.Units {
		t.Fatalf("injected %d faults across %d units, want one per unit", got, res.Units)
	}
	checkMerged(t, cfg, refRun(t, spec))
}

// TestFleetQuarantine wedges every worker (an unconditional boundary
// kill baked into WorkerArgv) and checks graceful degradation: all units
// quarantined, no merged output, and a machine-readable report of
// exactly the missing ranges.
func TestFleetQuarantine(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.WorkerArgv = append(cfg.WorkerArgv, "-kill-after", "0")
	cfg.MaxAttempts = 2

	res, err := Run(cfg)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	if len(res.Quarantined) != res.Units {
		t.Fatalf("quarantined %d of %d units", len(res.Quarantined), res.Units)
	}
	wantMissing := []harness.TrialRange{{Start: 0, Count: 24}}
	if !reflect.DeepEqual(res.Incomplete, wantMissing) {
		t.Fatalf("incomplete = %+v, want %+v", res.Incomplete, wantMissing)
	}
	if res.Retries != res.Units*(cfg.MaxAttempts-1) {
		t.Fatalf("retries = %d, want %d (MaxAttempts-1 per unit)", res.Retries, res.Units*(cfg.MaxAttempts-1))
	}
	if _, err := os.Stat(cfg.Out); !os.IsNotExist(err) {
		t.Fatalf("incomplete run must not leave a merged file (stat err=%v)", err)
	}
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct{ total, size, units int }{
		{24, 5, 5}, {24, 24, 1}, {24, 25, 1}, {1, 1, 1}, {10, 3, 4},
	} {
		rs := partition(tc.total, tc.size)
		if len(rs) != tc.units {
			t.Fatalf("partition(%d,%d) = %d units, want %d", tc.total, tc.size, len(rs), tc.units)
		}
		at := 0
		for _, r := range rs {
			if r.Start != at || r.Count <= 0 || r.Count > tc.size {
				t.Fatalf("partition(%d,%d): bad range %+v at %d", tc.total, tc.size, r, at)
			}
			at += r.Count
		}
		if at != tc.total {
			t.Fatalf("partition(%d,%d) covers %d trials", tc.total, tc.size, at)
		}
	}
}

// logEvent is one line of the lifecycle log (Config.Log).
type logEvent struct {
	TMS    int64  `json:"t_ms"`
	Ev     string `json:"ev"`
	Worker *struct {
		Slot int `json:"slot"`
		Pid  int `json:"pid"`
	} `json:"worker"`
	Unit     *int    `json:"unit"`
	Attempt  int     `json:"attempt"`
	Start    int     `json:"start"`
	Count    int     `json:"count"`
	Shard    string  `json:"shard"`
	Offset   int     `json:"offset"`
	SilentMS float64 `json:"silent_ms"`
}

// parseLog decodes the lifecycle log; every line must be a JSON object.
func parseLog(t *testing.T, log *bytes.Buffer) []logEvent {
	t.Helper()
	var evs []logEvent
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var ev logEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Ev == "" {
			t.Fatalf("lifecycle log line is not an event: %q (%v)", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func eventsOf(evs []logEvent, kind string) (out []logEvent) {
	for _, ev := range evs {
		if ev.Ev == kind {
			out = append(out, ev)
		}
	}
	return out
}

// chaosSeedFor searches the seed space for a plan whose only action is
// the wanted fault on unit 0, triggering after a trial count in [lo, hi].
func chaosSeedFor(t *testing.T, kind chaosKind, count, lo, hi int) *ChaosPlan {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		p := &ChaosPlan{Seed: seed, MaxActions: 1}
		switch kind {
		case chaosKill:
			p.Kill = 1
		case chaosStall:
			p.Stall = 1
		}
		if a := p.decide(0, count); a.kind == kind && a.after >= lo && a.after <= hi {
			return p
		}
	}
	t.Fatalf("no chaos seed schedules %v after [%d,%d] trials", kind, lo, hi)
	return nil
}

// TestFleetOneProcessManyLeases: a worker slot is one process for the
// whole run — every lease of a fault-free run goes to the pid that was
// spawned first — and the merged bytes are the single-process run's.
func TestFleetOneProcessManyLeases(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Workers = 1
	var log bytes.Buffer
	cfg.Log = &log

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMerged(t, cfg, refRun(t, spec))

	evs := parseLog(t, &log)
	spawns, leases, dones := eventsOf(evs, "spawn"), eventsOf(evs, "lease"), eventsOf(evs, "done")
	if len(spawns) != 1 || len(leases) != res.Units || len(dones) != res.Units || res.Units < 5 {
		t.Fatalf("%d spawns, %d leases, %d dones for %d units; want one process serving all", len(spawns), len(leases), len(dones), res.Units)
	}
	for _, ev := range leases {
		if ev.Worker == nil || ev.Worker.Pid != spawns[0].Worker.Pid {
			t.Fatalf("lease %+v not served by the slot's process %d", ev, spawns[0].Worker.Pid)
		}
	}
	if len(eventsOf(evs, "merge")) != 1 || len(eventsOf(evs, "exit")) != 1 {
		t.Fatalf("want one merge and one exit event in %d events", len(evs))
	}
	if res.LeaseMSMedian <= 0 || res.LeaseMSMax < res.LeaseMSMedian {
		t.Fatalf("lease times median %v max %v", res.LeaseMSMedian, res.LeaseMSMax)
	}
}

// TestFleetKillRespawnResumes: a worker killed in the middle of a lease is
// replaced by a new process; the retried lease resumes the same shard
// file from its last checkpoint, and every later lease goes to the new
// process.
func TestFleetKillRespawnResumes(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Workers = 1
	cfg.UnitTrials = 12 // two units
	cfg.Chaos = chaosSeedFor(t, chaosKill, 12, testCadence+1, 11)
	var log bytes.Buffer
	cfg.Log = &log

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Kills != 1 || res.Retries != 1 || res.Reassignments != 0 {
		t.Fatalf("kills=%d retries=%d reassignments=%d, want 1/1/0", res.Kills, res.Retries, res.Reassignments)
	}
	checkMerged(t, cfg, refRun(t, spec))

	evs := parseLog(t, &log)
	spawns, leases, resumes := eventsOf(evs, "spawn"), eventsOf(evs, "lease"), eventsOf(evs, "resume")
	if len(spawns) != 2 || len(leases) != 3 {
		t.Fatalf("%d spawns, %d leases; want a respawn and unit 0 leased twice", len(spawns), len(leases))
	}
	if leases[0].Worker.Pid != spawns[0].Worker.Pid {
		t.Fatalf("first lease went to pid %d, spawned %d", leases[0].Worker.Pid, spawns[0].Worker.Pid)
	}
	for _, ev := range leases[1:] {
		if ev.Worker.Pid != spawns[1].Worker.Pid || ev.Worker.Pid == spawns[0].Worker.Pid {
			t.Fatalf("lease after the kill went to pid %d, respawned %d", ev.Worker.Pid, spawns[1].Worker.Pid)
		}
	}
	retried := false
	for _, ev := range leases[1:] {
		if *ev.Unit == 0 {
			retried = true
			if ev.Attempt != 1 || ev.Shard != "unit-000.ulss" {
				t.Fatalf("retried lease %+v: want attempt 1 on the same shard file", ev)
			}
		}
	}
	if !retried {
		t.Fatal("unit 0 was not leased again")
	}
	if len(resumes) != 1 || *resumes[0].Unit != 0 || resumes[0].Offset < testCadence || resumes[0].Offset%testCadence != 0 {
		t.Fatalf("resume events %+v: want unit 0 resumed at a checkpoint", resumes)
	}
	if m, _ := filepath.Glob(filepath.Join(cfg.Dir, "unit-000.r*.ulss")); len(m) != 0 {
		t.Fatalf("a kill must not reassign the shard file: %v", m)
	}
}

// TestFleetStallAfterHeartbeat: heartbeats are paced by time, so the
// watchdog cannot count on one per trial — a worker that printed a
// heartbeat (its lease-start line) moments before hanging must still be
// SIGKILLed one HeartbeatTimeout after that line, not later.
func TestFleetStallAfterHeartbeat(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Workers = 1
	cfg.Chaos = chaosSeedFor(t, chaosStall, 5, 1, 4)
	cfg.HeartbeatTimeout = time.Second
	var log bytes.Buffer
	cfg.Log = &log

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stalls != 1 || res.Reassignments != 1 {
		t.Fatalf("stalls=%d reassignments=%d, want 1/1", res.Stalls, res.Reassignments)
	}
	checkMerged(t, cfg, refRun(t, spec))

	evs := parseLog(t, &log)
	kills := eventsOf(evs, "kill")
	if len(kills) != 1 {
		t.Fatalf("kill events %+v, want one", kills)
	}
	timeout := float64(cfg.HeartbeatTimeout.Milliseconds())
	if s := kills[0].SilentMS; s < timeout || s > 1.5*timeout {
		t.Fatalf("killed after %.0f ms of silence, want about %.0f", s, timeout)
	}
	// The stall came within moments of the lease-start heartbeat, so the
	// lease as a whole lasted barely longer than the silence.
	lease := eventsOf(evs, "lease")[0]
	if d := float64(kills[0].TMS - lease.TMS); d > 1.5*timeout {
		t.Fatalf("lease ran %.0f ms before the kill, want about %.0f", d, timeout)
	}
	if revokes := eventsOf(evs, "revoke"); len(revokes) != 1 || revokes[0].Shard != "unit-000.r1.ulss" {
		t.Fatalf("revoke events %+v, want unit 0 reassigned to a fresh shard", revokes)
	}
}

// TestWorkerOneShotAndHeartbeatPace runs the argv form of the worker —
// one lease from flags, the form cmd/ule-bench's spawn probe uses — over
// 2400 trials: it must exit 0 leaving a complete shard, and its stdout is
// a lease-start heartbeat, a heartbeat per pace, and the done line, not a
// line per trial.
func TestWorkerOneShotAndHeartbeatPace(t *testing.T) {
	spec := fleetSpec()
	spec.Trials = 300 // 2400 trials
	dir := t.TempDir()
	specJSON, _ := json.Marshal(spec)
	specPath, shard := filepath.Join(dir, "spec.json"), filepath.Join(dir, "one shot.ulss")
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-spec", specPath, "-start", "0", "-count", "2400", "-shard", shard, "-checkpoint-every", "0")
	cmd.Env = append(os.Environ(), "ULE_FLEET_WORKER=1")
	t0 := time.Now()
	out, err := cmd.Output()
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("one-shot worker: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[0] != "hb 0 2400" || lines[len(lines)-1] != "done 0 2400" {
		t.Fatalf("stdout starts %q and ends %q", lines[0], lines[len(lines)-1])
	}
	if max := 2 + int(elapsed/heartbeatPace) + 1; len(lines) > max || len(lines) > 40 {
		t.Fatalf("%d stdout lines for 2400 trials in %v, want at most %d", len(lines), elapsed, max)
	}
	ck, err := harness.InspectShard(shard)
	if err != nil || !ck.Done || ck.Start != 0 || ck.Count != 2400 || ck.Completed != 2400 {
		t.Fatalf("shard after the one-shot worker: %+v, %v", ck, err)
	}
}

// TestFleetCreatesDir: a Dir that does not exist yet is created, nested
// levels included.
func TestFleetCreatesDir(t *testing.T) {
	spec := fleetSpec()
	cfg := fleetConfig(t, spec)
	cfg.Dir = filepath.Join(cfg.Dir, "not", "yet", "there")
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run with a fresh nested Dir: %v", err)
	}
	checkMerged(t, cfg, refRun(t, spec))
}

// TestFleetRejectsShortHeartbeat: a deadline that cannot hold a few
// heartbeat paces is refused up front, not silently stretched.
func TestFleetRejectsShortHeartbeat(t *testing.T) {
	cfg := fleetConfig(t, fleetSpec())
	cfg.HeartbeatTimeout = minHeartbeatTimeout - time.Millisecond
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "HeartbeatTimeout") {
		t.Fatalf("Run with HeartbeatTimeout %v = %v, want an error naming it", cfg.HeartbeatTimeout, err)
	}
	if _, err := os.Stat(cfg.Out); err == nil {
		t.Fatal("a refused run left an output file")
	}
}

func TestLeaseLineRoundTrip(t *testing.T) {
	for _, l := range []lease{
		{r: harness.TrialRange{Start: 0, Count: 1}, shard: "/tmp/a.ulss"},
		{r: harness.TrialRange{Start: 507, Count: 506}, shard: `/tmp/with space/and "quote"/ü.ulss`, fault: chaosAction{kind: chaosKill, after: 0}},
		{r: harness.TrialRange{Start: 9, Count: 3}, shard: "rel.ulss", fault: chaosAction{kind: chaosStall, after: 2}},
	} {
		got, err := parseLease(strings.TrimSuffix(l.line(), "\n"), chaosAction{})
		if err != nil || got != l {
			t.Fatalf("parseLease(%q) = %+v, %v; want %+v", l.line(), got, err, l)
		}
	}
	// A lease that names no fault inherits the worker's default.
	def := chaosAction{kind: chaosKill, after: 0}
	if got, err := parseLease(`4 2 "x"`, def); err != nil || got.fault != def {
		t.Fatalf("default fault: %+v, %v", got, err)
	}
	for _, bad := range []string{"", "1 2", "1 2 unquoted", `1 2 "x" kill`, `1 2 "x" maim 3`} {
		if _, err := parseLease(bad, chaosAction{}); err == nil {
			t.Fatalf("parseLease(%q) accepted", bad)
		}
	}
}

// TestWorkerClosesForeignResumedShard: a lease whose shard path holds a
// resumable shard of some other range starts that file afresh, and the
// long-lived worker must not keep the handle ResumeShard opened on it —
// one leaked descriptor per such lease would outlive every lease after
// it. The collector is off for the count, since a finalizer closing the
// dropped file is what hid the leak.
func TestWorkerClosesForeignResumedShard(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	plan, err := fleetSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{plan: plan, opt: harness.BinaryOptions{CheckpointEvery: testCadence}}
	shard := filepath.Join(t.TempDir(), "unit.ulss")
	if err := w.serve(lease{r: harness.TrialRange{Start: 0, Count: 10}, shard: shard}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-3] // no end record: resumable, not complete

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFDs()
	for i := 0; i < 50; i++ {
		if err := os.WriteFile(shard, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := w.serve(lease{r: harness.TrialRange{Start: 10, Count: 5}, shard: shard}); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after > before {
		t.Fatalf("%d open descriptors before 50 foreign-range resumes, %d after", before, after)
	}
	if ck, err := harness.InspectShard(shard); err != nil || !ck.Done || ck.Start != 10 || ck.Count != 5 {
		t.Fatalf("shard after the last lease: %+v, %v", ck, err)
	}
}

// TestExactDiameterRefusedBeforeSpawn: a sweep that would grant flood the
// exact diameter of random:16384:131072 (n·m = 2^31, above
// core.ExactDiameterCap) is refused by Run with core.ErrExactDiameter,
// decided by arithmetic on the spec before a graph is built or a worker
// spawned: the worker binary does not exist, the directory stays empty,
// and the answer comes at once, where the BFS would take minutes.
func TestExactDiameterRefusedBeforeSpawn(t *testing.T) {
	dir := t.TempDir()
	spec := harness.Spec{Algos: []string{"flood"}, Graphs: []string{"random:16384:131072"}, Trials: 4}
	start := time.Now()
	_, err := Run(Config{Spec: spec, Dir: dir, Out: filepath.Join(dir, "merged.ulsb"),
		WorkerArgv: []string{filepath.Join(dir, "no-such-worker")}})
	if d := time.Since(start); d > time.Second {
		t.Errorf("refused in %v, want within 1 s", d)
	}
	if !errors.Is(err, core.ErrExactDiameter) || !strings.Contains(err.Error(), "diameter_estimate") {
		t.Fatalf("err = %v, want core.ErrExactDiameter naming diameter_estimate", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a refused sweep left %d entries in its directory", len(entries))
	}
}
