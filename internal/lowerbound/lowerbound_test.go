package lowerbound

import (
	"math"
	"math/rand"
	"testing"

	"ule/internal/graph"
)

// TestDumbbellInstanceShape checks the dumbbell instances E1, E2 and E5
// sample.
func TestDumbbellInstanceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		db, kappa, err := graph.RandomDumbbell(16, 60, rng)
		if err != nil {
			t.Fatal(err)
		}
		if db.N() != 32 {
			t.Errorf("N=%d want 32", db.N())
		}
		if !db.Connected() {
			t.Error("disconnected dumbbell")
		}
		// Closed-form diameter must match the measured one.
		if want := 2*(16-kappa) + 1; db.DiameterExact() != want {
			t.Errorf("diameter %d != formula %d (κ=%d)", db.DiameterExact(), want, kappa)
		}
	}
}

func TestMessageLBShowsOmegaM(t *testing.T) {
	// Every universal algorithm must spend Ω(m) messages on dumbbells:
	// messages/m bounded below by a constant across sizes.
	for _, algo := range []string{"leastel", "leastel-const", "flood", "kingdom"} {
		for _, tt := range []struct{ n, m int }{{12, 40}, {16, 80}, {24, 160}} {
			row, err := MessageLB(tt.n, tt.m, Sweep{Algo: algo, Trials: 4, Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if row.MsgsPerM.Min < 0.5 {
				t.Errorf("%s n=%d m=%d: msgs/m min=%.2f < 0.5 (Ω(m) violated?)",
					algo, tt.n, tt.m, row.MsgsPerM.Min)
			}
			if row.SuccessRate < 0.75 {
				t.Errorf("%s n=%d m=%d: success %.2f", algo, tt.n, tt.m, row.SuccessRate)
			}
		}
	}
}

func TestMessageLBBridgeCrossing(t *testing.T) {
	// Lemma 3.5's instrument: the election must cross a bridge. With few
	// candidates (Thm 4.4.(B)) the crossing typically comes after the
	// flood traversed part of a clique, so messages precede it.
	row, err := MessageLB(16, 100, Sweep{Algo: "leastel-const", Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if row.CrossRound.Max <= 0 {
		t.Error("no run ever crossed a bridge")
	}
	if row.BeforeCross.Max <= 0 {
		t.Error("no messages before first crossing in any run")
	}
}

func TestTimeLBShowsOmegaD(t *testing.T) {
	for _, algo := range []string{"leastel", "flood", "lasvegas"} {
		for _, d := range []int{8, 16, 32} {
			row, _, err := TimeLB(4*d, d, Sweep{Algo: algo, Trials: 3, Seed: 11})
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if row.RoundsPerD.Min < 0.5 {
				t.Errorf("%s d=%d: rounds/D min=%.2f < 0.5 (Ω(D) violated?)",
					algo, d, row.RoundsPerD.Min)
			}
			if row.SuccessRate < 1 {
				t.Errorf("%s d=%d: success %.2f", algo, d, row.SuccessRate)
			}
		}
	}
}

func TestTruncatedSuccessDropsBelowBudget(t *testing.T) {
	// With a 10%-of-D budget the election cannot complete; with 4x it must.
	_, trunc, err := TimeLB(48, 12, Sweep{Algo: "leastel", Trials: 6, Seed: 5}, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if low := trunc[0]; low.SuccessRate > 0.5 {
		t.Errorf("truncated run at 0.1·D succeeded %.2f of the time", low.SuccessRate)
	}
	if high := trunc[1]; high.SuccessRate < 1 {
		t.Errorf("full-budget run only succeeded %.2f", high.SuccessRate)
	}
}

func TestTrivialSuccessNearInverseE(t *testing.T) {
	row, err := TrivialSuccess(128, 800, 17)
	if err != nil {
		t.Fatal(err)
	}
	if row.Messages != 0 {
		t.Error("trivial sent messages")
	}
	if math.Abs(row.SuccessRate-1/math.E) > 0.08 {
		t.Errorf("success %.3f, want ≈ %.3f", row.SuccessRate, 1/math.E)
	}
}

func TestBroadcastLBShowsOmegaM(t *testing.T) {
	for _, tt := range []struct{ n, m int }{{12, 40}, {16, 100}} {
		row, err := BroadcastLB(tt.n, tt.m, 5, 23)
		if err != nil {
			t.Fatal(err)
		}
		if row.MajorityOK < 1 {
			t.Errorf("flooding broadcast failed majority: %.2f", row.MajorityOK)
		}
		// Flooding sends ~2 messages per edge.
		if row.MsgsPerM.Min < 1 || row.MsgsPerM.Max > 3 {
			t.Errorf("msgs/m = [%.2f, %.2f], want ≈ 2", row.MsgsPerM.Min, row.MsgsPerM.Max)
		}
	}
}
