package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFromEdgesValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  error
	}{
		{"self loop", 3, [][2]int{{1, 1}}, ErrSelfLoop},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}}, ErrDuplicateEdge},
		{"out of range", 3, [][2]int{{0, 3}}, ErrBadEndpoint},
		{"negative", 3, [][2]int{{-1, 0}}, ErrBadEndpoint},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFromEdges(tt.n, tt.edges); err == nil {
				t.Fatalf("want error %v, got nil", tt.want)
			}
		})
	}
	g, err := NewFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestFamilies(t *testing.T) {
	tests := []struct {
		name     string
		g        *Graph
		n, m     int
		diameter int
	}{
		{"path", Path(5), 5, 4, 4},
		{"ring even", Ring(8), 8, 8, 4},
		{"ring odd", Ring(7), 7, 7, 3},
		{"star", Star(6), 6, 5, 2},
		{"complete", Complete(5), 5, 10, 1},
		{"grid", Grid(3, 4), 12, 17, 5},
		{"torus", Torus(4, 4), 16, 32, 4},
		{"hypercube", Hypercube(4), 16, 32, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.N(); got != tt.n {
				t.Errorf("N = %d, want %d", got, tt.n)
			}
			if got := tt.g.M(); got != tt.m {
				t.Errorf("M = %d, want %d", got, tt.m)
			}
			if !tt.g.Connected() {
				t.Error("not connected")
			}
			if got := tt.g.DiameterExact(); got != tt.diameter {
				t.Errorf("diameter = %d, want %d", got, tt.diameter)
			}
			if tt.g.DegreeSum() != 2*tt.g.M() {
				t.Errorf("degree sum %d != 2m=%d", tt.g.DegreeSum(), 2*tt.g.M())
			}
		})
	}
}

func TestPortSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomConnected(40, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	g.ShufflePorts(rng)
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Degree(u); p++ {
			v := g.Neighbor(u, p)
			back := g.PortTo(v, u)
			if back < 0 {
				t.Fatalf("missing back edge for (%d,%d)", u, v)
			}
			if g.Neighbor(v, back) != u {
				t.Fatalf("asymmetric ports at (%d,%d)", u, v)
			}
		}
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(nSeed, mSeed uint8) bool {
		n := 2 + int(nSeed)%60
		maxM := n * (n - 1) / 2
		m := n - 1 + int(mSeed)%(maxM-n+2)
		if m > maxM {
			m = maxM
		}
		g, err := RandomConnected(n, m, rng)
		if err != nil {
			return false
		}
		return g.N() == n && g.M() == m && g.Connected() && g.DegreeSum() == 2*m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandomConnectedRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomConnected(5, 3, rng); err == nil {
		t.Error("m < n-1 accepted")
	}
	if _, err := RandomConnected(5, 11, rng); err == nil {
		t.Error("m > n(n-1)/2 accepted")
	}
	if _, err := RandomConnected(0, 0, rng); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := RandomConnected(25, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges len %d != m %d", len(edges), g.M())
	}
	g2, err := NewFromEdges(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.ShufflePorts(rand.New(rand.NewSource(99)))
	// Original must still satisfy ring structure 0-1.
	if g.Neighbor(0, 0) != 1 && g.Neighbor(0, 1) != 1 {
		t.Error("clone mutation leaked into original")
	}
	if c.N() != g.N() || c.M() != g.M() {
		t.Error("clone shape mismatch")
	}
}
