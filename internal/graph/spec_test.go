package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestFromSpecFamilies(t *testing.T) {
	cases := []struct {
		spec      string
		n, m      int // m == 0: the edge count depends on the family's parameters
		connected bool
	}{
		{"path:8", 8, 7, true},
		{"ring:8", 8, 8, true},
		{"star:8", 8, 7, true},
		{"complete:6", 6, 15, true},
		{"hypercube:3", 8, 12, true},
		{"grid:3x4", 12, 17, true},
		{"torus:3x4", 12, 24, true},
		{"bipartite:3x4", 7, 12, true},
		{"random:16:30", 16, 30, true},
		{"regular:16:4", 16, 32, true},
		{"caterpillar:5:2", 15, 14, true},
		{"lollipop:12:24", 12, 0, true},
		{"dumbbell:12:24", 24, 0, true},
		{"cliquecycle:32:8", 32, 0, true},
	}
	for _, c := range cases {
		g, err := FromSpec(c.spec, 1)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", c.spec, err)
			continue
		}
		if g.N() != c.n {
			t.Errorf("FromSpec(%q): n=%d want %d", c.spec, g.N(), c.n)
		}
		if c.m > 0 && g.M() != c.m {
			t.Errorf("FromSpec(%q): m=%d want %d", c.spec, g.M(), c.m)
		}
		if c.connected && !g.Connected() {
			t.Errorf("FromSpec(%q): not connected", c.spec)
		}
	}
}

func TestFromSpecDeterministic(t *testing.T) {
	for _, spec := range []string{"random:16:30", "regular:16:4", "dumbbell:12:24"} {
		a, err := FromSpec(spec, 7)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		b, err := FromSpec(spec, 7)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		ae, be := a.Edges(), b.Edges()
		if len(ae) != len(be) {
			t.Fatalf("FromSpec(%q): edge counts differ: %d vs %d", spec, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("FromSpec(%q): edge %d differs: %v vs %v", spec, i, ae[i], be[i])
			}
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	for _, spec := range []string{"nosuch:8", "ring", "grid:3", "random:16", "ring:x", "grid:axb"} {
		if _, err := FromSpec(spec, 1); err == nil {
			t.Errorf("FromSpec(%q): want error, got nil", spec)
		}
	}
}

func TestDiameterExactMemoized(t *testing.T) {
	g := Ring(10)
	if d := g.DiameterExact(); d != 5 {
		t.Fatalf("ring:10 diameter = %d, want 5", d)
	}
	// Cached value survives port shuffles (distances are port-independent).
	g.ShufflePorts(rand.New(rand.NewSource(3)))
	if d := g.DiameterExact(); d != 5 {
		t.Fatalf("ring:10 diameter after shuffle = %d, want 5", d)
	}
	// Concurrent readers race only on the sync.Once.
	done := make(chan int, 8)
	h := Grid(6, 7)
	for i := 0; i < 8; i++ {
		go func() { done <- h.DiameterExact() }()
	}
	for i := 0; i < 8; i++ {
		if d := <-done; d != 11 {
			t.Fatalf("grid:6x7 diameter = %d, want 11", d)
		}
	}
}

// TestSpecSizeMatchesBuild holds the size arithmetic to the builders: for
// every family over a grid of small parameters (and, where a seed moves
// the edges, eight seeds), SpecSize refuses what FromSpec refuses and
// otherwise names the N() and M() of the graph FromSpec builds.
func TestSpecSizeMatchesBuild(t *testing.T) {
	var specs []string
	for a := 0; a <= 12; a++ {
		for _, kind := range []string{"path", "ring", "star", "complete"} {
			specs = append(specs, fmt.Sprintf("%s:%d", kind, a))
		}
		if a <= 6 {
			specs = append(specs, fmt.Sprintf("hypercube:%d", a))
		}
		for b := 0; b <= 40; b++ {
			if b <= 6 {
				for _, kind := range []string{"grid", "torus", "bipartite"} {
					specs = append(specs, fmt.Sprintf("%s:%dx%d", kind, a, b))
				}
			}
			for _, kind := range []string{"random", "regular", "caterpillar", "lollipop", "dumbbell", "cliquecycle"} {
				specs = append(specs, fmt.Sprintf("%s:%d:%d", kind, a, b))
			}
		}
	}
	built := map[string]int{}
	for _, spec := range specs {
		kind, _, _ := strings.Cut(spec, ":")
		nodes, edges, sizeErr := SpecSize(spec)
		for seed := int64(1); seed <= 8; seed++ {
			g, err := FromSpec(spec, seed)
			if err != nil && sizeErr == nil && kind == "regular" && strings.Contains(err.Error(), "no simple connected pairing") {
				continue // the pairing model's bad luck, not the spec's fault
			}
			if (err != nil) != (sizeErr != nil) {
				t.Fatalf("%s: FromSpec error %v, SpecSize error %v", spec, err, sizeErr)
			}
			if err != nil {
				break
			}
			if int64(g.N()) != nodes || int64(g.M()) != edges {
				t.Fatalf("%s seed %d: SpecSize says n=%d m=%d, the graph has n=%d m=%d", spec, seed, nodes, edges, g.N(), g.M())
			}
			built[kind]++
		}
	}
	for _, kind := range []string{"path", "ring", "star", "complete", "hypercube", "grid", "torus", "bipartite",
		"random", "regular", "caterpillar", "lollipop", "dumbbell", "cliquecycle"} {
		if built[kind] < 8 {
			t.Errorf("%s: only %d graphs built: the parameter grid misses the family", kind, built[kind])
		}
	}
	// Sizes no builder could be asked for stay arithmetic.
	for spec, want := range map[string][2]int64{
		"complete:20000":              {20000, 199990000},
		"complete:2147483647":         {2147483647, 2305843005992468481},
		"torus:2147483647x2147483647": {4611686014132420609, 9223372028264841218},
		"hypercube:30":                {1 << 30, 15 << 30},
	} {
		nodes, edges, err := SpecSize(spec)
		if err != nil || nodes != want[0] || edges != want[1] {
			t.Errorf("SpecSize(%q) = (%d, %d, %v), want %v", spec, nodes, edges, err, want)
		}
	}
	if _, _, err := SpecSize("complete:2147483648"); err == nil {
		t.Error("SpecSize accepts a parameter beyond the int32 index range")
	}
}
