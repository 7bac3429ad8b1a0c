package harness

// reorderRing is the sweep tail's trial-index reorder window: workers
// finish trials out of order, the emitters must see them in index order.
// It is a power-of-two circular buffer indexed by trial index & mask
// (a map[int]TrialResult here cost more in bucket churn and hashing than
// the allocation-free encoders behind it). base is the next index to
// emit; an occupied slot i always holds trial (base + ((i - base) & mask)),
// so put/take are one mask and one array access.
//
// Workers claim trials in index order, so a finished record is ahead of
// base by about the worker count and the normal path never leaves the
// initial window; grow is the safety valve for a trial that outlasts
// ringSlots of its successors, so the ring never blocks a worker. The
// zero value is an empty window at base 0; the first put makes its slots.
type reorderRing struct {
	buf  []TrialResult
	occ  []bool
	mask int
	base int // next trial index to hand out
}

// ringSlots is the initial window (a power of two).
const ringSlots = 256

// put stores tr, growing the window if the index is beyond the current
// span. Indices below base are gone (each trial arrives exactly once).
func (r *reorderRing) put(tr TrialResult) {
	for tr.Index-r.base >= len(r.buf) {
		r.grow()
	}
	i := tr.Index & r.mask
	r.buf[i] = tr
	r.occ[i] = true
}

// take removes and returns the record at base, or ok=false if it has not
// arrived yet. Drained slots are not zeroed — clearing ~200 bytes per
// trial is measurable at 10^6-trial rates, and a stale record only pins
// its strings until the window wraps, so retention is bounded by the
// window size.
func (r *reorderRing) take() (TrialResult, bool) {
	i := r.base & r.mask
	if i >= len(r.occ) || !r.occ[i] { // nothing was put yet, or not this one
		return TrialResult{}, false
	}
	tr := r.buf[i]
	r.occ[i] = false
	r.base++
	return tr, true
}

// grow doubles the window, re-homing occupied slots by their trial index
// under the new mask.
func (r *reorderRing) grow() {
	size := max(ringSlots, len(r.buf)<<1)
	buf := make([]TrialResult, size)
	occ := make([]bool, size)
	mask := size - 1
	for i, o := range r.occ {
		if o {
			buf[r.buf[i].Index&mask] = r.buf[i]
			occ[r.buf[i].Index&mask] = true
		}
	}
	r.buf, r.occ, r.mask = buf, occ, mask
}
