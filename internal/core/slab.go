package core

import "slices"

// slab chunk-allocates the wire records one process sends as pointers, so
// that a Send boxes nothing: box copies a record into the current chunk,
// and a full chunk is left in place — records in flight keep pointing into
// it — for the next. The process never writes a record again while the run
// lasts, and its receivers only read it, during the Round that delivers
// it: a record is dead once the run that sent it has ended, which is when
// a renewed process (sim.Recycler) rewinds the slab and draws the same
// records again. A process that rejoins in mid-run must therefore be a new
// one, with a slab of its own (sim's fault.go sees to that).
type slab[T any] struct {
	cur []T // the chunk being filled: the last of chunks
	// chunks lists the chunks in use; the ones an earlier run started wait
	// in its spare capacity.
	chunks [][]T
}

// slabChunk is the number of records a process allocates at a time.
const slabChunk = 16

// box copies v into the slab and returns the record to send.
func (s *slab[T]) box(v T) *T {
	if len(s.cur) == cap(s.cur) {
		s.chunks = extend(s.chunks)
		chunk := &s.chunks[len(s.chunks)-1]
		if *chunk == nil {
			*chunk = make([]T, 0, slabChunk)
		}
		s.cur = (*chunk)[:0]
	}
	s.cur = append(s.cur, v)
	return &s.cur[len(s.cur)-1]
}

// rewound returns the slab empty, every chunk it ever started kept for the
// next run.
func (s slab[T]) rewound() slab[T] { return slab[T]{chunks: s.chunks[:0]} }

// emptied returns m with every entry deleted and its storage kept for the
// next run, or a new map when there is none yet.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// row returns s as n zero elements, on s's storage when it has room: a
// per-port row of a node of degree n.
func row[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// extend lengthens s by one element: the one an earlier run of the process
// left in the spare capacity, with whatever storage it owns, or a zero one.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	return append(s, *new(T))
}
