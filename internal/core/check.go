package core

import (
	"errors"
	"fmt"

	"ule/internal/sim"
)

// ErrGuarantee is returned, wrapped, by a run that broke a promise of its
// Table 1 row (docs/ARCHITECTURE.md § "One verdict").
var ErrGuarantee = errors.New("core: Table 1 guarantee broken")

// msgSlack turns a deterministic row's O(·) message bound into a per-run
// limit; TestCheckMatrix's largest finished synchronous ratio is 12.
const msgSlack = 16

// check is the verdict on a finished run whose engine was handed ids:
// what its row promises, held to the run when the row makes the promise
// for it (judges). Every row but a 1/e one elects at most one leader; a
// probability-1 row elects exactly one unless the run hit its round cap
// or the options left its protocol fewer candidates than nodes
// (fewerCandidates); a row with a fixed Winner elects the node holding
// that ID when it elects one; a deterministic row sends at most msgSlack
// times its message bound, at the diameter it was granted.
func (p *Prepared) check(ro RunOpts, ids []int64, res *sim.Result) error {
	if !p.judges(ro) {
		return nil
	}
	b := p.spec.Bound
	switch {
	case b.Success != OverE && res.LeaderCount() > 1:
		return fmt.Errorf("%w: %s elected %d leaders", ErrGuarantee, p.spec.Name, res.LeaderCount())
	case b.Success == Always && !res.HitRoundCap && !res.UniqueLeader() && !p.fewerCandidates(ro.Opt):
		return fmt.Errorf("%w: %s ended without a unique leader (%d elected)", ErrGuarantee, p.spec.Name, res.LeaderCount())
	case b.Winner != AnyID && ids != nil && res.LeaderCount() == 1 && !b.Winner.elects(ids, res.Leaders[0]):
		return fmt.Errorf("%w: %s elected ID %d, not the %s ID", ErrGuarantee, p.spec.Name, ids[res.Leaders[0]], b.Winner)
	case p.spec.Deterministic:
		if limit := msgSlack * b.Msgs.Of(p.g.N(), p.g.M(), p.Diameter(ro)); float64(res.Messages) > limit {
			return fmt.Errorf("%w: %s sent %d messages > %d·%s = %.0f", ErrGuarantee, p.spec.Name, res.Messages, msgSlack, b.Msgs.Label, limit)
		}
	}
	return nil
}

// judges reports whether p's row makes its promises for ro's run: a row's
// guarantees assume a fault-free network, a simultaneous start unless the
// row says AnyStart, and synchronous rounds unless it is message-driven.
func (p *Prepared) judges(ro RunOpts) bool {
	b := p.spec.Bound
	return ro.Model.Faults == nil && (ro.Wake == nil || b.AnyStart) && (ro.Model.Mode != sim.ASYNC || b.MessageDriven)
}

// fewerCandidates reports whether the protocol the row's registration
// builds from o lets fewer than all n nodes stand as candidates: a run
// can then end with none, which an f = n row does not promise against.
// Only leastel's family has a candidate budget f(n) (Theorem 4.4), and
// FScale < 1 shrinks it; no option shrinks any other row's candidates.
func (p *Prepared) fewerCandidates(o Options) bool {
	le, ok := p.spec.New(o).(LeastEl)
	return ok && fValue(le.F, p.g.N(), le.Opt) < float64(p.g.N())
}
