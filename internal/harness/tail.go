package harness

import "time"

// sweepTail is the ordered tail of a sweep — the one place a trial record
// goes once it exists. Begin reaches every emitter when the tail is made;
// each record then passes, in trial-index order, through every emitter and
// into the online aggregator; end builds the report and hands it to the
// emitters. Plan.Run feeds it in completion order from its workers (under
// Run's mutex), Plan.MergeShards in index order from the shard merge, and
// a resumed Run first folds the checkpoint's durable prefix into the
// aggregator alone (SweepCheckpoint.replay: those records are already in
// the emitters' stream). Not safe for concurrent use.
type sweepTail struct {
	plan     *Plan
	start    time.Time
	emitters []Emitter
	agg      sweepAgg
	err      error // the first emitter error: sticky, nothing is emitted after it
}

// newTail starts the tail of one execution of the sweep: Begin on every
// emitter, the Plan's reorder window emptied and set to trial index base.
func (p *Plan) newTail(emitters []Emitter, base int) (*sweepTail, error) {
	clear(p.ring.occ) // a run that failed leaves records behind
	p.ring.base = base
	t := &sweepTail{
		plan:     p,
		start:    time.Now(),
		emitters: emitters,
		agg:      sweepAgg{byKey: make(map[[6]string]*groupAcc)},
	}
	for _, em := range emitters {
		if err := em.Begin(p.spec, p.total); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// put takes a record in completion order and passes on, to the emitters
// and the aggregator, whatever the reorder window can now release in
// trial-index order. After the first emitter error it drops the record
// and returns that error again: trials that were in flight when the sweep
// failed still land here.
func (t *sweepTail) put(tr TrialResult) error {
	if t.err != nil {
		return t.err
	}
	ring := &t.plan.ring
	ring.put(tr)
	for {
		next, ok := ring.take()
		if !ok {
			return nil
		}
		for _, em := range t.emitters {
			if t.err = em.Trial(next); t.err != nil {
				return t.err
			}
		}
		t.agg.add(&next)
	}
}

// end synthesizes the report — groups in first-appearance order, which is
// expansion order because records arrived in trial-index order — and ends
// every emitter with it. A tail that failed returns its error and ends
// nothing.
func (t *sweepTail) end(workers int) (*Report, error) {
	if t.err != nil {
		return nil, t.err
	}
	rep := &Report{
		Spec:    t.plan.spec,
		Total:   t.plan.total,
		Elapsed: time.Since(t.start),
		Workers: workers,
		plan:    t.plan,
	}
	t.agg.finish(rep)
	for _, em := range t.emitters {
		if err := em.End(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
