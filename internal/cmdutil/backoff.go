package cmdutil

import (
	"time"

	"ule/internal/sim"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter. It is a pure value: Delay(attempt) depends only on the
// configuration and the attempt index, so concurrent goroutines share one
// Backoff without locks, and a fixed Seed reproduces the exact delay
// sequence — the property the fleet coordinator's seed-deterministic
// chaos tests rely on.
type Backoff struct {
	// Base is the attempt-0 delay. Zero selects 10ms.
	Base time.Duration
	// Cap bounds the grown (pre-jitter) delay. Zero selects 30·Base.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier. Values below 1 select 2.
	Factor float64
	// Jitter is the randomized fraction of each delay: the returned delay
	// is uniform in [d·(1-Jitter), d]. Zero means no jitter; values are
	// clamped to [0, 1].
	Jitter float64
	// Seed selects the deterministic jitter stream. Two Backoffs with the
	// same configuration and seed produce identical sequences.
	Seed uint64
}

// Delay returns the delay before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 30 * base
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	if attempt < 0 {
		attempt = 0
	}
	d := float64(base)
	limit := float64(cap)
	for i := 0; i < attempt && d < limit; i++ {
		d *= factor
	}
	if d > limit {
		d = limit
	}
	jitter := b.Jitter
	if jitter < 0 {
		jitter = 0
	} else if jitter > 1 {
		jitter = 1
	}
	if jitter > 0 {
		// splitmix64 of (seed, attempt) → uniform fraction in [0, 1).
		u := sim.SplitMix64(b.Seed + uint64(attempt)*0x9E3779B97F4A7C15)
		frac := float64(u>>11) / float64(1<<53)
		d *= 1 - jitter*frac
	}
	return time.Duration(d)
}

// Sleep sleeps for Delay(attempt), returning early with false if done is
// closed first. A nil done never interrupts.
func (b Backoff) Sleep(attempt int, done <-chan struct{}) bool {
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
