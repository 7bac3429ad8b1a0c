package graph

import (
	"math/rand"
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
