package sim

// SetMinPooledWork replaces, for the external tests of this package, the
// due work from which a tick goes to the shard pool: 0 puts every tick of
// a multi-shard run on the pool, math.MaxInt runs every tick inline. The
// returned function restores the shipped threshold.
func SetMinPooledWork(work int) (restore func()) {
	old := minPooledWork
	minPooledWork = work
	return func() { minPooledWork = old }
}

// IgnoreIdleHints makes the event engine ignore every Context.IdleUntil —
// each awake node keeps all its round timers — until the returned function
// is called.
func IgnoreIdleHints() (restore func()) {
	honorIdleHints = false
	return func() { honorIdleHints = true }
}

// RunReference is the round-by-round reference interpreter of the
// synchronous model (reference_test.go), for the external tests.
var RunReference = runReference
