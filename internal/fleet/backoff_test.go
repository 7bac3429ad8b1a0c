package fleet

import (
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 160 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		160 * time.Millisecond, // capped
		160 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffConcurrentUse(t *testing.T) {
	// Value semantics: no locks, so concurrent Delay calls must agree.
	b := Backoff{Base: time.Millisecond}
	want := make([]time.Duration, 32)
	for i := range want {
		want[i] = b.Delay(i)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range want {
				if b.Delay(i) != want[i] {
					t.Errorf("concurrent Delay(%d) diverged", i)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if d := b.Delay(0); d != 10*time.Millisecond {
		t.Fatalf("zero-value Delay(0) = %v, want 10ms", d)
	}
	if d := b.Delay(100); d != 300*time.Millisecond {
		t.Fatalf("zero-value Delay(100) = %v, want the 30·Base cap", d)
	}
	if d := b.Delay(-3); d != b.Delay(0) {
		t.Fatalf("negative attempt = %v, want Delay(0)", d)
	}
}
