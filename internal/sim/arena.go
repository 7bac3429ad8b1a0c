// Message arena: the zero-allocation containers of the engine's hot path.
//
// A node has two rows: its outbox — this round's sends, outMsg values in
// send order — and its inbox — the Messages delivered to it this tick. In
// the synchronous modes the inbox row is also where a message waits: the
// flush of tick t (or, from another shard, the mailbox drain at its
// barrier) writes it there for tick t+1, once the row's tick-t messages
// have been read. An ASYNC message waits in the wheel instead and is
// written into the row when its tick falls due.
// The Runner owns both and carves them, in NewRunner and Rebind, out of
// two slabs (one []outMsg, one []Message) in node order, a row's stretch
// holding min(degree, slabRowCap) records: the step phase reads inboxes
// and the flush reads outboxes in ascending node order, so rows laid out
// in that order are read forwards, and a Runner's first run finds them
// where every later run will. A stretch is capped three-index, so a row
// that outgrows it is re-homed by append onto an array of its own and
// never into its neighbour's stretch; it keeps that larger array until
// the Runner is rebound (its stretch of the slab is then dead weight, at
// most slabRowCap records). Rows are emptied, never freed: after the first
// run a round of traffic performs no allocation.
//
// Payload.Bits() is evaluated exactly once, at send time, and cached in
// the outMsg / delivery records; a row's arrivals are summed as they are
// written (land), so neither the CONGEST cap check nor the delivery
// accounting re-dispatches through the Payload interface.
// Per-port tables (reverse ports; link sequence numbers and delay-hash
// prefixes, made only for the ASYNC and link-drop runs that read them)
// are flat arrays indexed by off[u]+port. The per-port send cap needs no
// table: each shard counts the sends of the one node it is stepping in a
// max-degree row (engineShard.sendCnt).
//
// The flush leaves an outbox row's slots in place when it empties the
// row: a message bound for another shard is read there by the mailbox
// drain at the barrier (shard.go), and the slot is not written again
// before the node's next step.
//
// A synchronous broadcast that is its node's first send of the tick
// (and no link drops a message) is not written into the outbox row at
// all: it stays one per-node bcastSlot, which the receivers' shards read
// at the barrier, and a later send of the tick expands it into the row
// first.
//
// The inbox ordering contract — ascending receiving port, per-link send
// order preserved within a port — is enforced once per receiving node and
// tick by orderInbox, which allocates nothing once its shard's scratch
// has grown to the longest row.
package sim

import "slices"

// slabRowCap bounds a row's stretch of the Runner's slab: a node of degree
// d starts with room for min(d, slabRowCap) messages, so a complete graph
// or a star does not pay n·d records up front.
const slabRowCap = 32

// outMsg is one queued send. The receiving-side coordinates are resolved
// when the row is flushed.
type outMsg struct {
	port int32 // sending port
	bits int32 // cached Payload.Bits() from send time
	pl   Payload
}

// bcastSlot is a node's broadcast of one synchronous tick kept whole
// (sendAll): the payload with its cached size, the sending port it skips
// (−1: none) and the tick it was sent in. It
// stands for the records sendAll's loop would queue, and holds them only
// while tick is the current tick: expand writes them out and clears
// tick, and a later tick never reads a slot of an earlier one.
type bcastSlot struct {
	pl   Payload
	bits int32
	skip int32
	tick int
}

// inboxOrder is a shard's scratch for ordering inbox rows (orderInbox).
// Between calls cnt is all zero and tmp holds no payload.
type inboxOrder struct {
	cnt []int32
	tmp []Message
}

// shortRow is the row length up to which the insertion sort beats the
// counting placement whatever the arrival order (BenchmarkInboxOrder).
const shortRow = 8

// orderInbox puts the inbox row of a node of degree deg into the order of
// the inbox contract: ascending receiving port, per-link send order kept
// within a port. A row that arrived in order — one message, a lone
// sender, senders that happen to flush in port order — costs one scan. A
// short row, or one much shorter than the port range it would have to
// count over (a hub hearing from a few of its neighbours), is
// insertion-sorted in place. Anything else is placed by counting: one
// pass counts the messages per port, a prefix sum turns the counts into
// each port's first slot, and one pass over a copy of the row, in arrival
// order, drops every message into its port's next slot — stable by
// construction, O(len + deg) record moves where insertion pays O(len²) on
// a row that arrives in sender order, which on all but the most regular
// graphs has nothing to do with port order.
func (o *inboxOrder) orderInbox(in []Message, deg int) {
	k := len(in)
	if k <= shortRow {
		sortInboxByPort(in) // on a row in order, the same one scan
		return
	}
	sorted := true
	for i := 1; i < k; i++ {
		if in[i].Port < in[i-1].Port {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if deg > 4*k {
		sortInboxByPort(in)
		return
	}
	if len(o.cnt) < deg+1 {
		o.cnt = make([]int32, deg+1)
	}
	if len(o.tmp) < k {
		o.tmp = make([]Message, k)
	}
	cnt, tmp := o.cnt[:deg+1], o.tmp[:k]
	for i := range in {
		cnt[in[i].Port+1]++
	}
	for p := 1; p < deg; p++ {
		cnt[p] += cnt[p-1]
	}
	copy(tmp, in)
	for i := range tmp {
		p := tmp[i].Port
		in[cnt[p]] = tmp[i]
		cnt[p]++
	}
	clear(cnt)
	clear(tmp)
}

// sortInboxByPort is orderInbox's in-place branch, for the rows counting
// does not pay for: a stable insertion sort for the short ones, and for a
// long row of a node with far more ports than messages — a hub in ASYNC
// mode collecting a few deliveries in delay order — a stable O(k log k)
// sort. Neither allocates.
func sortInboxByPort(in []Message) {
	if len(in) > 32 {
		slices.SortStableFunc(in, func(a, b Message) int { return a.Port - b.Port })
		return
	}
	for i := 1; i < len(in); i++ {
		m := in[i]
		j := i - 1
		for j >= 0 && in[j].Port > m.Port {
			in[j+1] = in[j]
			j--
		}
		in[j+1] = m
	}
}
