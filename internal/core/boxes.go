package core

import (
	"sync"

	"ule/internal/sim"
)

// The flood family's wire records are boxes (*flMsg) that are written once
// and never copied: flooder.out draws a box and fills it, the drip queue
// and the engine carry the pointer, and the receiver reads it in place.
//
// Ownership: the sender draws one box per send (a box never travels two
// links) and gives it up when flush hands it to the engine. The process
// whose inbox a box arrives in owns it from then on and releases it
// exactly once, after every one of its flooders has handled that inbox
// (cluster keeps what arrives before its phase 3 until the round that
// handles it) — never earlier: a box released mid-round can be drawn again
// by the handler that is still reading the inbox, and a flooder that scans
// an inbox looks at the tag of every box in it, its own or not. Payloads
// that are not *flMsg are not the flood's and are left alone. Boxes that
// are never handled (arrivals at halted or crashed nodes, dropped
// messages, aborted runs) are left to the GC. docs/ARCHITECTURE.md § "The
// flood wire record" has the argument in full.

// boxDepot holds the free boxes of one Prepared's run, on one shelf per
// engine shard: a process releases the boxes it read onto the shelf of
// the shard that steps it, and draws its sends from there. A shard steps
// one node at a time, so no box pays an atomic or a lock, and the box a
// node draws is the last one released on its shard — still in cache. An
// empty shelf draws a batch from the process-wide reserve, and when the
// run ends every shelf goes back to it (stow), so the boxes outlive runs
// and collections — a warm trial allocates no box — and a Prepared that
// is not running holds none: uled's idle cells share them.
type boxDepot struct {
	shelves []boxShelf
}

// ready gives d a shelf for each of k shards. It runs between runs.
func (d *boxDepot) ready(k int) {
	if k > len(d.shelves) {
		d.shelves = append(d.shelves, make([]boxShelf, k-len(d.shelves))...)
	}
}

// shelf returns the shelf of shard i; a nil depot — a protocol built
// outside a Prepared — gives every flooder a shelf of its own.
func (d *boxDepot) shelf(i int) *boxShelf {
	if d == nil {
		return new(boxShelf)
	}
	return &d.shelves[i]
}

// stow gives every shelf's boxes back to the reserve. It runs between
// runs.
func (d *boxDepot) stow() {
	spares.mu.Lock()
	for i := range d.shelves {
		s := &d.shelves[i]
		spares.free = append(spares.free, s.free...)
		clear(s.free)
		s.free = s.free[:0]
	}
	spares.mu.Unlock()
}

// boxShelf is one shard's free boxes, the last released drawn first.
type boxShelf struct {
	free []*flMsg
	// The shards of a run write their shelves concurrently: each shelf has
	// a cache line of its own.
	_ [40]byte
}

// shelfBatch is how many boxes an empty shelf draws from the reserve.
const shelfBatch = 64

// get draws a box; an empty shelf first draws a batch from the reserve.
func (s *boxShelf) get() *flMsg {
	n := len(s.free)
	if n == 0 {
		s.free = spares.take(s.free, shelfBatch)
		n = shelfBatch
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b
}

// release puts the flood boxes of a handled inbox on the shelf.
func (s *boxShelf) release(inbox []sim.Message) {
	for i := range inbox {
		if b, ok := inbox[i].Payload.(*flMsg); ok {
			if onRelease != nil {
				onRelease(b)
			}
			s.free = append(s.free, b)
		}
	}
}

// boxReserve holds the boxes of the Prepared values that are not running,
// for whichever runs next; the shelves of a run reach it once per batch,
// so it is locked.
type boxReserve struct {
	mu   sync.Mutex
	free []*flMsg
	// made counts the boxes the reserve has allocated.
	made int
}

var spares boxReserve

// take appends n boxes to dst, allocating, as one slab, what the reserve
// lacks. A run's shelves only draw from the reserve, so what the run
// allocates in all is what it draws less what the reserve held, whatever
// order its shards draw in.
func (r *boxReserve) take(dst []*flMsg, n int) []*flMsg {
	r.mu.Lock()
	k := max(len(r.free)-n, 0)
	short := n - (len(r.free) - k)
	dst = append(dst, r.free[k:]...)
	clear(r.free[k:])
	r.free = r.free[:k]
	r.made += short
	r.mu.Unlock()
	if short > 0 {
		slab := make([]flMsg, short)
		for i := range slab {
			dst = append(dst, &slab[i])
		}
	}
	return dst
}
