package serve

import (
	"context"
	"runtime"
	"testing"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// heapCost returns the bytes and objects f allocates.
func heapCost(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAllocBudgetColdElection pins what a request for a cell its slot
// does not hold costs once the slot is full: building the graph, and
// rebinding the least recently used cell to it instead of preparing a new
// one (215 KB in 790 allocations when every cold cell was a new Prepared;
// 72 KB in 159 measured).
func TestAllocBudgetColdElection(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	req := ElectionRequest{Graph: "random:64:256", Algo: "leastel", SmallIDs: true}
	cold := func() {
		req.GraphSeed++
		req.Seed = req.GraphSeed
		if _, err := m.RunElection(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*slotPrepCap; i++ {
		cold() // fill the slot, then rebind every cell once
	}
	const runs = 64
	bytes, objects := heapCost(func() {
		for i := 0; i < runs; i++ {
			cold()
		}
	})
	bytes, objects = bytes/runs, objects/runs
	t.Logf("cold random:64:256 leastel request on a full slot: %d B in %d allocations", bytes, objects)
	if bytes > 80<<10 || objects > 200 {
		t.Errorf("cold request: %d KB in %d allocations, budget 80 KB in 200", bytes>>10, objects)
	}
}

// TestAllocBudgetHotElection: a request for a cell its slot holds costs
// its ElectionResult and nothing else. The exact-diameter cap of a flood
// request is read off the cell's graph, not parsed from the spec again
// (224 B in 2 allocations per request when every flood, lasvegas and
// kingdom-d request ran graph.SpecSize).
func TestAllocBudgetHotElection(t *testing.T) {
	m := NewManager(Config{Slots: 1})
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	s := <-m.slots
	defer m.release(s)
	req := ElectionRequest{Graph: "ring:64", Algo: "flood", Seed: 1}
	hot := func() {
		if _, err := m.runElection(req, s); err != nil {
			t.Fatal(err)
		}
	}
	hot() // build the cell
	const runs = 256
	bytes, objects := heapCost(func() {
		for i := 0; i < runs; i++ {
			hot()
		}
	})
	perBytes, perObjects := float64(bytes)/runs, float64(objects)/runs
	t.Logf("hot ring:64 flood request: %.1f B in %.2f allocations", perBytes, perObjects)
	if perBytes > 200 || perObjects > 1.1 {
		t.Errorf("hot request: %.1f B in %.2f allocations, budget 200 B in 1", perBytes, perObjects)
	}
}

// TestSlotMemoryFollowsTraffic: however many distinct cells a slot serves,
// it keeps at most slotPrepCap of them, and a cell rebound from a large
// graph to a small one keeps no storage of the large one.
func TestSlotMemoryFollowsTraffic(t *testing.T) {
	m := NewManager(Config{Slots: 2})
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	algos := core.Names()
	for i := 0; i < 2000; i++ {
		req := ElectionRequest{
			Graph: "random:24:60", GraphSeed: int64(1 + i/len(algos)), Algo: algos[i%len(algos)],
			Seed: int64(i), SmallIDs: true, MaxRounds: 1 << 10,
		}
		if _, err := m.RunElection(context.Background(), req); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	for i := 0; i < m.cfg.Slots; i++ {
		s := <-m.slots
		defer m.release(s)
		if len(s.cells) > slotPrepCap {
			t.Errorf("a slot holds %d cells after 2000 distinct ones, cap %d", len(s.cells), slotPrepCap)
		}
	}

	if raceEnabled {
		t.Skip("the race detector multiplies the ring:1048576 Runner's half a gigabyte")
	}
	prep, err := core.Prepare(graph.Ring(1<<20), "trivial")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	if err := prep.RunInto(core.RunOpts{Seed: 1, SmallIDs: true}, &res); err != nil {
		t.Fatal(err)
	}
	if err := prep.Rebind(graph.Ring(64), "leastel"); err != nil {
		t.Fatal(err)
	}
	res = sim.Result{}
	if err := prep.RunInto(core.RunOpts{Seed: 1}, &res); err != nil || !res.UniqueLeader() {
		t.Fatalf("leastel on ring:64 after the rebind: %v, %d leaders", err, res.LeaderCount())
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(prep)
	prep = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	if kept := int64(with.HeapAlloc) - int64(without.HeapAlloc); kept > 1<<20 {
		t.Errorf("a Prepared rebound from ring:1048576 to ring:64 retains %d KB, budget 1 MB", kept>>10)
	} else {
		t.Logf("a Prepared rebound from ring:1048576 to ring:64 retains %d KB", kept>>10)
	}
}
