// Timing wheel: the pending-event index of the event-driven engine.
//
// The wheel holds what falls due at a later tick: spontaneous wake-ups,
// timers and ASYNC deliveries. A synchronous message is not among them —
// it always arrives at t+1, so the flush writes it straight into its
// receiver's inbox row (event.go). Nearly every schedule lands within a
// few ticks of the current one — bounded asynchronous delays, short
// IdleUntil timers — so events are kept in a power-of-two ring of
// per-tick buckets addressed by tick&mask, with a word-level occupancy
// bitmap for O(1) amortized "next scheduled tick" queries. The
// rare far-future event (a distant spontaneous-wake round, a long timer)
// overflows into a tick-keyed min-heap and migrates into the ring as
// virtual time advances. Compared to the previous map[int]*tickBucket plus
// heap, the wheel does no hashing and no allocation on the hot path: ring
// buckets live inline in the wheel and their wake and timer slices are
// recycled in place.
//
// A bucket's []delivery — the one array here whose size follows the
// traffic, and only in ASYNC — is owned by the wheel, not by the bucket: a
// bucket borrows one from the wheel's spares when its first delivery is
// scheduled (lend) and hands it back when the bucket is cleared (release:
// once its tick's events are applied, when pruning drops it, on reset). A
// wheel therefore holds as many arrays as buckets ever held deliveries at
// once — about the delay bound — instead of one peak-sized array per ring
// slot the run ever passed through, and a synchronous run's wheels hold
// none.
package sim

import (
	"cmp"
	"math/bits"
)

// wheelSlots is the ring size. A schedule at most wheelSlots ticks ahead
// of the current tick hits the ring directly; anything farther goes to
// the overflow heap. Must be a power of two.
const wheelSlots = 256

const wheelMask = wheelSlots - 1

// timingWheel indexes every pending tickBucket. Ticks currently
// representable in the ring are exactly the open window
// (cur, cur+wheelSlots), which maps injectively onto the slots while
// leaving slot cur&mask free — the bucket of the tick being processed
// occupies it until takeCurrent runs, so a window tick must never share
// it. All other pending ticks live in far.
type timingWheel struct {
	slots [wheelSlots]tickBucket
	occ   [wheelSlots / 64]uint64 // occupancy bitmap over slots
	cur   int                     // latest processed tick
	live  int                     // occupied ring slots

	// Overflow state for ticks beyond the ring window. far is keyed by
	// tick; farHeap is a min-heap of its keys; free recycles buckets.
	far     map[int]*tickBucket
	farHeap minHeap[int]
	free    []*tickBucket

	// spares are the delivery arrays no bucket is borrowing, emptied.
	spares [][]delivery
}

func newTimingWheel() *timingWheel {
	return &timingWheel{far: make(map[int]*tickBucket)}
}

// lend returns tick t's bucket (see at) holding a delivery array to
// append to: the one it already borrowed, or a spare.
func (w *timingWheel) lend(t int) *tickBucket {
	b := w.at(t)
	if b.deliveries == nil {
		if k := len(w.spares); k > 0 {
			b.deliveries, w.spares = w.spares[k-1], w.spares[:k-1]
		} else {
			b.deliveries = []delivery{}
		}
	}
	return b
}

// release empties bucket b, which has left the pending set, and returns
// its delivery array to the spares.
func (w *timingWheel) release(b *tickBucket) {
	if b.deliveries != nil {
		w.spares = append(w.spares, b.deliveries[:0])
		b.deliveries = nil
	}
	b.wakes = b.wakes[:0]
	b.timers = b.timers[:0]
	b.wakeAll = false
}

// reset clears all pending events for Runner reuse. Slice capacity inside
// ring and freed buckets, and the spares, are retained.
func (w *timingWheel) reset() {
	if w.live > 0 {
		for s := range w.slots {
			if w.occ[s>>6]&(1<<(s&63)) != 0 {
				w.release(&w.slots[s])
			}
		}
	}
	w.occ = [wheelSlots / 64]uint64{}
	w.live = 0
	w.cur = 0
	for t, b := range w.far {
		w.release(b)
		w.free = append(w.free, b)
		delete(w.far, t)
	}
	w.farHeap = w.farHeap[:0]
}

// empty reports whether no tick has a pending bucket.
func (w *timingWheel) empty() bool { return w.live == 0 && len(w.farHeap) == 0 }

// at returns (creating if needed) the bucket of tick t. t must be in the
// future (t > cur).
func (w *timingWheel) at(t int) *tickBucket {
	if t-w.cur < wheelSlots {
		s := t & wheelMask
		if w.occ[s>>6]&(1<<(s&63)) == 0 {
			w.occ[s>>6] |= 1 << (s & 63)
			w.live++
		}
		return &w.slots[s]
	}
	if b, ok := w.far[t]; ok {
		return b
	}
	var b *tickBucket
	if k := len(w.free); k > 0 {
		b, w.free = w.free[k-1], w.free[:k-1]
	} else {
		b = &tickBucket{}
	}
	w.far[t] = b
	w.farHeap.push(t, cmp.Less[int])
	return b
}

// advance marks tick t as the one being processed and migrates overflow
// buckets that now fall inside the ring window. By the time the engine
// advances to t, every bucket below t has been taken or pruned, so the
// window invariant — pending ring ticks ∈ (cur, cur+wheelSlots) — holds
// and each migrating tick's slot is free: tick t's own (possibly still
// pending, takeCurrent runs after advance) slot t&mask is excluded
// because the window is open at cur+wheelSlots.
func (w *timingWheel) advance(t int) {
	w.cur = t
	for len(w.farHeap) > 0 && w.farHeap[0]-t < wheelSlots {
		ft := w.farHeap.pop(cmp.Less[int])
		fb := w.far[ft]
		delete(w.far, ft)
		s := ft & wheelMask
		// Swap contents so both the (empty — see the window invariant
		// above) slot and the recycled far bucket keep their wake and
		// timer capacity; a borrowed delivery array moves with the rest.
		w.slots[s], *fb = *fb, w.slots[s]
		w.occ[s>>6] |= 1 << (s & 63)
		w.live++
		w.free = append(w.free, fb)
	}
}

// takeCurrent removes and returns the bucket of tick t, which must be the
// tick advance was just called with (so it is ring-resident if present).
// The returned bucket stays owned by its slot; the caller releases it
// after processing.
func (w *timingWheel) takeCurrent(t int) *tickBucket {
	s := t & wheelMask
	if w.occ[s>>6]&(1<<(s&63)) == 0 {
		return nil
	}
	w.occ[s>>6] &^= 1 << (s & 63)
	w.live--
	return &w.slots[s]
}

// minTick returns the earliest pending tick. The wheel must not be empty.
// Ring ticks always precede overflow ticks, so the ring bitmap is scanned
// first, circularly from cur+1.
func (w *timingWheel) minTick() int {
	if w.live > 0 {
		start := (w.cur + 1) & wheelMask
		wi := start >> 6
		word := w.occ[wi] &^ (1<<(start&63) - 1)
		for i := 0; i <= len(w.occ); i++ {
			if word != 0 {
				bit := wi<<6 + bits.TrailingZeros64(word)
				return w.cur + 1 + ((bit - start) & wheelMask)
			}
			wi = (wi + 1) & (len(w.occ) - 1)
			word = w.occ[wi]
		}
	}
	return w.farHeap[0]
}

// peek returns tick t's bucket without removing it (nil if none).
func (w *timingWheel) peek(t int) *tickBucket {
	if t-w.cur < wheelSlots {
		s := t & wheelMask
		if w.occ[s>>6]&(1<<(s&63)) == 0 {
			return nil
		}
		return &w.slots[s]
	}
	return w.far[t]
}

// drop discards tick t's bucket (used by dead-event pruning; t is always
// the minimum pending tick there, so an overflow drop is a heap pop-min).
func (w *timingWheel) drop(t int) {
	if t-w.cur < wheelSlots {
		s := t & wheelMask
		if w.occ[s>>6]&(1<<(s&63)) != 0 {
			w.occ[s>>6] &^= 1 << (s & 63)
			w.live--
			w.release(&w.slots[s])
		}
		return
	}
	if b, ok := w.far[t]; ok {
		delete(w.far, t)
		w.farHeap.pop(cmp.Less[int])
		w.release(b)
		w.free = append(w.free, b)
	}
}
