package fleet

import "time"

// Backoff paces the retries of a failed unit: the delay doubles per
// attempt from Base up to Cap. It is a pure value — Delay depends only on
// the configuration and the attempt — so the retry goroutines share it
// without locks.
type Backoff struct {
	// Base is the attempt-0 delay. Zero selects 10ms.
	Base time.Duration
	// Cap bounds the delay. Zero selects 30·Base.
	Cap time.Duration
}

// Delay returns the delay before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	limit := b.Cap
	if limit <= 0 {
		limit = 30 * base
	}
	d := base
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}
