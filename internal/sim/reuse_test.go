package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ule/internal/graph"
)

// overSendProto is chaosProto whose stepped nodes, at round `at`, send
// through port 0 once more than the default cap allows.
type overSendProto struct{ at int }

func (p overSendProto) New(NodeInfo) Process { return &overSender{at: p.at} }

type overSender struct {
	chaosProc
	at int
}

func (p *overSender) Round(c *Context, inbox []Message) {
	for k := 0; c.Round() == p.at && k <= 8; k++ {
		c.Send(0, tokenMsg{int64(k)})
	}
	p.chaosProc.Round(c, inbox)
}

// TestWarmRunnerMatchesFresh drives one Runner, and one Result shell,
// through every transition a run's state must not survive — synchronous
// to ASYNC and back, 1 to 4 shards and back, instruments on and off,
// faults on and off, a run that dies of a double send and one stopped at
// the round cap with messages in flight, each followed by a clean run —
// and requires every run to return exactly what a fresh Runner returns:
// the same Result, Crashed nil where the run keeps none, or the same
// error.
func TestWarmRunnerMatchesFresh(t *testing.T) {
	g := graph.Torus(8, 8)
	watch := [][2]int{{0, 1}, {9, 17}, {62, 63}}
	steps := []struct {
		name        string
		model       string
		shards      int
		instruments bool
		overSendAt  int
		maxRounds   int
	}{
		{name: "congest", model: "congest", shards: 1},
		{name: "async", model: "async+random:4", shards: 1},
		{name: "congest after async", model: "congest", shards: 1},
		{name: "4 shards, instruments", model: "congest", shards: 4, instruments: true},
		{name: "4 shards, instruments, async", model: "async+fifo:3", shards: 4, instruments: true},
		{name: "1 shard, instruments", model: "local", shards: 1, instruments: true},
		{name: "instruments off", model: "congest", shards: 1},
		{name: "faults", model: "congest+crashrec:0.2:4+drop:0.05", shards: 4, instruments: true},
		{name: "faults, async", model: "async+random:3+churn:0.3:5", shards: 1},
		{name: "faults off", model: "congest", shards: 4},
		{name: "double send", model: "congest", shards: 4, overSendAt: 6},
		{name: "after the double send", model: "congest", shards: 4},
		{name: "round cap", model: "async+random:6", shards: 1, maxRounds: 5},
		{name: "after the round cap", model: "congest", shards: 1},
	}
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	var warm Result
	for i, st := range steps {
		m, err := ParseModel(st.model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Graph: g, IDs: SequentialIDs(g.N(), 1), Seed: int64(40 + i), Model: m,
			MaxRounds: 400, Shards: st.shards,
		}
		if st.maxRounds > 0 {
			cfg.MaxRounds = st.maxRounds
		}
		if st.instruments {
			cfg.WatchEdges = watch
		}
		var p Protocol = chaosProto{}
		if st.overSendAt > 0 {
			p = overSendProto{at: st.overSendAt}
		}
		fresh, freshErr := Run(cfg, p)
		warmErr := r.RunInto(cfg, p, &warm)
		switch {
		case st.overSendAt > 0:
			if !errors.Is(freshErr, ErrDoubleSend) || !strings.Contains(freshErr.Error(), fmt.Sprintf("round %d ", st.overSendAt)) ||
				warmErr == nil || warmErr.Error() != freshErr.Error() {
				t.Fatalf("%s: want a double send in round %d from both, fresh %v, warm %v", st.name, st.overSendAt, freshErr, warmErr)
			}
		case freshErr != nil || warmErr != nil:
			t.Fatalf("%s: fresh %v, warm %v", st.name, freshErr, warmErr)
		case !reflect.DeepEqual(&warm, fresh):
			t.Fatalf("%s: the warm Runner diverges:\nwarm:  %+v\nfresh: %+v", st.name, warm, *fresh)
		case st.maxRounds > 0 && !warm.HitRoundCap:
			t.Fatalf("%s: the run did not reach its cap", st.name)
		}
	}
}

// renewingChaos is chaosProto as a Recycler: a process of its own type is
// rewritten in place, anything else replaced.
type renewingChaos struct{ chaosProto }

func (p renewingChaos) Renew(old Process, info NodeInfo) Process {
	if c, ok := old.(*chaosProc); ok {
		*c = chaosProc{violate: p.violate}
		return c
	}
	return p.New(info)
}

// TestRebindMatchesFresh drives one Runner through
// graphs of different node counts, edge counts and degrees and back, and
// on each through the synchronous and ASYNC modes, crashes, crash-recovery
// and link drops, with the instruments on every other run and the
// processes alternately renewed and replaced. Every run must return
// exactly what a fresh Runner on that graph returns, at every shard count,
// and every Rebind must leave the slabs and the process slots past the
// graph's last node holding nothing.
func TestRebindMatchesFresh(t *testing.T) {
	// Each graph is built with its index as seed, so the two random:24:60
	// in a row have the same node and edge counts and other wiring.
	specs := []string{"ring:16", "random:24:60", "random:24:60", "star:12", "dumbbell:16:40", "torus:4x4", "dumbbell:16:40", "star:12", "random:24:60", "ring:16"}
	models := []string{"congest", "local", "async+random:4", "crash:0.1", "crashrec:0.2:4", "drop:0.05"}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var r *Runner
			step := 0
			for i, spec := range specs {
				g, err := graph.FromSpec(spec, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if r == nil {
					r, err = NewRunner(g)
				} else {
					err = r.Rebind(g)
				}
				if err != nil {
					t.Fatal(err)
				}
				b := &r.eng.buffers
				for _, p := range b.procs[g.N():cap(b.procs)] {
					if p != nil {
						t.Fatalf("%s: a process past the last node survives the Rebind", spec)
					}
				}
				for _, m := range b.inSlab[:cap(b.inSlab)] {
					if m.Payload != nil {
						t.Fatalf("%s: the inbox slab pins a payload after the Rebind", spec)
					}
				}
				for _, m := range b.outSlab[:cap(b.outSlab)] {
					if m.pl != nil {
						t.Fatalf("%s: the outbox slab pins a payload after the Rebind", spec)
					}
				}
				for _, model := range models {
					step++
					m, err := ParseModel(model)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{
						Graph: g, IDs: SequentialIDs(g.N(), int64(step)), Seed: int64(step), Model: m,
						MaxRounds: 400, Shards: shards,
					}
					if step%2 == 0 {
						cfg.WatchEdges = [][2]int{{0, g.Neighbor(0, 0)}}
					}
					var p Protocol = chaosProto{}
					if step%3 != 0 {
						p = renewingChaos{}
					}
					fresh, err := Run(cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					warm, err := r.Run(cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(warm, fresh) {
						t.Fatalf("%s %s: the rebound Runner diverges:\nwarm:  %+v\nfresh: %+v", spec, model, *warm, *fresh)
					}
				}
			}
		})
	}
}
