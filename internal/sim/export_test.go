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

// SetMinGatherShare replaces, for the external tests of this package,
// the share of the directed edges from which a tick's broadcast slots are
// landed by gathering: 0 gathers on every tick that has a slot,
// math.Inf(1) walks the broadcaster lists on every one. The returned
// function restores the shipped share.
func SetMinGatherShare(share float64) (restore func()) {
	old := minGatherShare
	minGatherShare = share
	return func() { minGatherShare = old }
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
