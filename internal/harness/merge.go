package harness

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// IncompleteError reports that a set of shards does not cover the full
// trial index space of the sweep. MergeShards returns it before writing
// any emitter output, so a partial fleet run never produces a
// plausible-looking but incomplete merged document. The missing ranges
// are sorted and disjoint — a machine-readable work list for finishing
// the sweep.
type IncompleteError struct {
	Total   int          `json:"total"`
	Missing []TrialRange `json:"missing"`
}

func (e *IncompleteError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "harness: shards do not cover the sweep (%d trials); missing", e.Total)
	for i, r := range e.Missing {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " [%d,%d)", r.Start, r.Start+r.Count)
	}
	return sb.String()
}

// MergeConfig tunes MergeShards.
type MergeConfig struct {
	// Emitters receive every merged trial in absolute index order, then
	// the synthesized report — exactly the stream a single-process Run
	// would have produced. Pass NewBinaryEmitter (with the original
	// checkpoint cadence) to obtain a merged binary byte-identical to an
	// uninterrupted run.
	Emitters []Emitter
}

// MergeShards reassembles shard files written by distributed workers into
// the full sweep document. Shards may overlap (a retried unit re-runs a
// prefix another attempt already made durable) and may be incomplete
// (only the durable checkpoint prefix of each shard is trusted);
// duplicate trial records are deduplicated by absolute trial index, and
// every duplicate is verified byte-equal to the record it repeats — a
// mismatch means the determinism contract broke and is an error, not a
// silent choice. The merged emitter stream and report groups are
// bit-identical to a single-process Run of the same spec, which is the
// fleet coordinator's correctness bar (see docs/DISTRIBUTED.md).
//
// If the shards do not cover [0, total), MergeShards returns an
// *IncompleteError naming the missing ranges before any emitter output.
func MergeShards(spec Spec, paths []string, mc MergeConfig) (*Report, error) {
	p, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return p.MergeShards(paths, mc)
}

// MergeShards is the package-level MergeShards on an already compiled
// sweep. Merging instantiates no graph; the report's Graphs does, for
// whatever part of the axis the Plan has not built yet.
func (p *Plan) MergeShards(paths []string, mc MergeConfig) (*Report, error) {
	total := p.total

	// Inspect every shard first: durable prefix lengths bound how far each
	// stream may be read, and coverage is checked before any output.
	cks := make([]*SweepCheckpoint, 0, len(paths))
	for _, path := range paths {
		ck, err := InspectShard(path)
		if err != nil {
			return nil, err
		}
		if err := ck.CheckPlan(p); err != nil {
			return nil, err // a shard of some other sweep
		}
		if ck.Completed > 0 {
			cks = append(cks, ck)
		}
	}
	if missing := coverageGaps(total, cks); len(missing) > 0 {
		return nil, &IncompleteError{Total: total, Missing: missing}
	}

	streams := make([]*prefixStream, 0, len(cks))
	defer func() {
		for _, s := range streams {
			s.f.Close()
		}
	}()
	mh := make(mergeHeap, 0, len(cks))
	for _, ck := range cks {
		s, err := openPrefixStream(ck)
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
		if err := s.next(); err != nil {
			return nil, err
		}
		if s.ok {
			mh = append(mh, s)
		}
	}
	heap.Init(&mh)

	tail, err := p.newTail(mc.Emitters, 0)
	if err != nil {
		return nil, err
	}
	var prev TrialResult
	want := 0
	for mh.Len() > 0 {
		s := mh[0]
		tr := s.sc.trial
		if err := s.next(); err != nil {
			return nil, err
		}
		if s.ok {
			heap.Fix(&mh, 0)
		} else {
			heap.Pop(&mh)
		}
		switch {
		case tr.Index == want:
			if err := tail.put(tr); err != nil { // in order already: straight through the window
				return nil, err
			}
			prev = tr
			want++
		case tr.Index == want-1:
			// A re-run prefix duplicates trials another shard already
			// provided; determinism says the bytes must agree.
			if tr != prev {
				return nil, fmt.Errorf("harness: shard %s: trial %d disagrees with an overlapping shard (determinism violation)",
					s.f.Name(), tr.Index)
			}
		default:
			// Coverage was verified up front, so an index jump here means a
			// shard lied about its range.
			return nil, fmt.Errorf("harness: shard merge out of order at trial %d (want %d)", tr.Index, want)
		}
	}
	if want != total {
		return nil, fmt.Errorf("harness: shard merge produced %d of %d trials", want, total)
	}
	return tail.end(0)
}

// coverageGaps returns the sorted disjoint sub-ranges of [0, total) not
// covered by any checkpoint's durable prefix [Start, Start+Completed).
func coverageGaps(total int, cks []*SweepCheckpoint) []TrialRange {
	type iv struct{ lo, hi int }
	ivs := make([]iv, 0, len(cks))
	for _, ck := range cks {
		ivs = append(ivs, iv{ck.Start, ck.Start + ck.Completed})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var missing []TrialRange
	at := 0
	for _, v := range ivs {
		if v.lo > at {
			missing = append(missing, TrialRange{Start: at, Count: v.lo - at})
			at = v.lo
		}
		if v.hi > at {
			at = v.hi
		}
	}
	if at < total {
		missing = append(missing, TrialRange{Start: at, Count: total - at})
	}
	return missing
}

// mergeHeap orders shard streams by the absolute index of their next
// trial, so Pop order is global trial-index order with duplicates
// adjacent.
type mergeHeap []*prefixStream

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].sc.trial.Index < h[j].sc.trial.Index }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*prefixStream)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
