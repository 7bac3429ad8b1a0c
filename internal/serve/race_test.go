//go:build race

package serve

// raceEnabled reports whether the test binary runs under the race
// detector, whose shadow memory multiplies what a large Runner holds.
const raceEnabled = true
