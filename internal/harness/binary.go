package harness

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// BinarySchemaVersion identifies the compact binary sweep format written
// by NewBinaryEmitter; see docs/SWEEP_SCHEMA.md. The layout:
//
//	magic   "ULSB1\n"
//	header  uvarint specLen, specJSON (the ule-sweep/v3 spec echo, verbatim)
//	        uvarint total trials
//	        uvarint checkpoint cadence (trials between durable checkpoints)
//	        8-byte LE spec hash (FNV-1a 64 over specJSON ‖ LE64(total))
//	records, each introduced by a tag byte:
//	  0x01 cellDef     algo, graph, mode, wake, delay, fault (uvarint len +
//	                   bytes each), uvarint n, uvarint m; defines the next
//	                   cell id (0, 1, ...) in order of first appearance
//	  0x02 trial       uvarint cellID, uvarint rep, flags byte, uvarint d,
//	                   rounds, lastActive, messages, bits, leaders;
//	                   then [flagSeed] zigzag seed, [flagFault] uvarint
//	                   crashes, recoveries, dropped, [flagErr] uvarint len +
//	                   error bytes. Trial index is implicit (records are in
//	                   index order); seed is stored only when it differs
//	                   from the spec-derived TrialSeed(spec.Seed, rep).
//	  0x03 checkpoint  uvarint completed trials, 8-byte LE checkpoint hash;
//	                   everything before this record is durable (the writer
//	                   flushes and fsyncs right after it)
//	  0x04 end         uvarint groupsLen, groupsJSON (verbatim
//	                   json.Marshal of the report groups), uvarint total,
//	                   uvarint errors, magic "ULSE"; presence marks a
//	                   complete document
//
// A typical fault-free trial record is 12–18 bytes against ~200 bytes of
// ule-sweep/v3 JSON. The JSON document remains the interchange format:
// ExportJSON re-encodes a binary stream into the byte-identical
// ule-sweep/v3 document the JSON emitter would have produced.
const BinarySchemaVersion = "ule-sweepbin/v1"

// ShardSchemaVersion identifies the shard variant of the binary format: a
// contiguous slice [start, start+count) of a sweep's trial index space,
// written by one worker process of a distributed run (internal/fleet).
// The layout differs from the full document only in the header — magic
// "ULSS1\n", then specLen/specJSON/total exactly as the full format,
// then uvarint start and uvarint count before the cadence and spec hash —
// and in the end record: tag 0x05 carries uvarint start, uvarint count
// and the end magic instead of a groups trailer (group aggregation is the
// merger's job). Trial records are byte-identical to the full format;
// their absolute trial index is start + (records seen), and checkpoint
// hashes are salted with (start, count) so a checkpoint from a different
// shard of the same sweep never validates. MergeShards reassembles any
// covering set of shards into the full document, byte-for-byte.
const ShardSchemaVersion = "ule-sweepbin-shard/v1"

var (
	binMagic      = []byte("ULSB1\n")
	binShardMagic = []byte("ULSS1\n")
	binEndMagic   = []byte("ULSE")
)

// ErrSweepComplete is returned by ResumeBinary when the file already
// carries the end trailer — there is nothing left to resume.
var ErrSweepComplete = errors.New("harness: sweep already complete")

// DefaultCheckpointEvery is the checkpoint cadence used when
// BinaryOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 8192

// Caps on attacker-controlled lengths so a corrupt or adversarial file
// yields an error instead of a giant allocation.
const (
	maxBinString = 1 << 20 // axis / error strings
	maxBinGroups = 1 << 28 // groups trailer JSON
	maxBinCells  = 1 << 22 // cell definitions per document
)

// trial record flag bits.
const (
	binFlagUnique      = 1 << 0
	binFlagHalted      = 1 << 1
	binFlagHitRoundCap = 1 << 2
	binFlagLiveUnique  = 1 << 3
	binFlagFault       = 1 << 4 // crashes/recoveries/dropped follow
	binFlagErr         = 1 << 5 // error string follows
	binFlagSeed        = 1 << 6 // explicit zigzag seed follows
	binFlagsKnown      = binFlagUnique | binFlagHalted | binFlagHitRoundCap |
		binFlagLiveUnique | binFlagFault | binFlagErr | binFlagSeed
)

// record tags.
const (
	binTagCell       = 0x01
	binTagTrial      = 0x02
	binTagCheckpoint = 0x03
	binTagEnd        = 0x04
	binTagShardEnd   = 0x05
)

// BinaryOptions tunes the binary emitter.
type BinaryOptions struct {
	// CheckpointEvery is the number of trials between durable
	// checkpoints (flush + fsync when the writer is a file); 0 selects
	// DefaultCheckpointEvery. The cadence is recorded in the header so a
	// resumed sweep keeps the original placement and the final file stays
	// byte-identical to an uninterrupted run.
	CheckpointEvery int
}

// sweepSpecHash is the integrity hash binding a binary stream to its
// expanded spec: FNV-1a 64 over the spec JSON followed by the little-
// endian total trial count.
func sweepSpecHash(specJSON []byte, total int) uint64 {
	h := fnv.New64a()
	h.Write(specJSON)
	var tot [8]byte
	binary.LittleEndian.PutUint64(tot[:], uint64(total))
	h.Write(tot[:])
	return h.Sum64()
}

// checkpointHash authenticates one checkpoint record. salt is the spec
// hash for full documents and shardSalt(specHash, start, count) for
// shards, so a shard checkpoint never validates against a different
// range of the same sweep.
func checkpointHash(salt uint64, completed int) uint64 {
	h := fnv.New64a()
	h.Write([]byte("ulsb-ckpt"))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], salt)
	binary.LittleEndian.PutUint64(b[8:], uint64(completed))
	h.Write(b[:])
	return h.Sum64()
}

// shardSalt derives the checkpoint-hash salt of one shard range.
func shardSalt(specHash uint64, start, count int) uint64 {
	h := fnv.New64a()
	h.Write([]byte("ulsb-shard"))
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:8], specHash)
	binary.LittleEndian.PutUint64(b[8:16], uint64(start))
	binary.LittleEndian.PutUint64(b[16:], uint64(count))
	h.Write(b[:])
	return h.Sum64()
}

// binaryEmitter streams the ule-sweepbin/v1 document. Like the JSON and
// CSV emitters it is reflection-free on the per-trial path: every record
// is appended to a reusable buffer with varint/byte writes.
type binaryEmitter struct {
	w      *bufio.Writer
	syncFn func() error // underlying fsync when the writer is a file
	closer io.Closer    // owned file handle (resume path only)

	buf      []byte
	cells    map[[6]string]int
	specSeed int64
	specHash uint64
	ckSalt   uint64
	total    int
	written  int
	every    int
	resumed  bool

	// Shard emitters write the range [start, start+count) of the sweep's
	// trial index space; full-document emitters have shard=false and
	// count=total.
	shard bool
	start int
	count int
}

type fileSyncer interface{ Sync() error }

// NewBinaryEmitter returns an emitter writing a ule-sweepbin/v1 document
// to w. If w has a Sync method (an *os.File), every checkpoint record is
// followed by a flush and fsync, making the prefix durable for
// ResumeBinary.
func NewBinaryEmitter(w io.Writer, opt BinaryOptions) Emitter {
	e := &binaryEmitter{
		w:     bufio.NewWriterSize(w, 1<<16),
		cells: make(map[[6]string]int),
		every: opt.CheckpointEvery,
	}
	if e.every <= 0 {
		e.every = DefaultCheckpointEvery
	}
	if s, ok := w.(fileSyncer); ok {
		e.syncFn = s.Sync
	}
	return e
}

// NewShardEmitter returns an emitter writing the shard variant of the
// binary format covering trials [start, start+count) of the sweep. Like
// NewBinaryEmitter it fsyncs at every checkpoint when w is a file, so a
// killed worker's shard resumes from its last durable checkpoint
// (ResumeShard). Pair it with RunConfig.Range so only the shard's trials
// execute.
func NewShardEmitter(w io.Writer, start, count int, opt BinaryOptions) Emitter {
	e := NewBinaryEmitter(w, opt).(*binaryEmitter)
	e.shard = true
	e.start = start
	e.count = count
	return e
}

func (e *binaryEmitter) Begin(spec Spec, total int) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	hash := sweepSpecHash(specJSON, total)
	if e.resumed {
		// The header is already on disk; just verify the caller is
		// continuing the same sweep.
		if hash != e.specHash || total != e.total {
			return fmt.Errorf("harness: resume spec mismatch (hash %016x != checkpoint %016x)", hash, e.specHash)
		}
		e.specSeed = spec.withDefaults().Seed
		return nil
	}
	if e.shard {
		if e.start < 0 || e.count <= 0 || e.start+e.count > total {
			return fmt.Errorf("harness: shard range [%d,%d) outside sweep of %d trials", e.start, e.start+e.count, total)
		}
	} else {
		e.start, e.count = 0, total
	}
	e.specSeed = spec.withDefaults().Seed
	e.specHash = hash
	e.ckSalt = hash
	if e.shard {
		e.ckSalt = shardSalt(hash, e.start, e.count)
	}
	e.total = total
	b := e.buf[:0]
	if e.shard {
		b = append(b, binShardMagic...)
	} else {
		b = append(b, binMagic...)
	}
	b = binary.AppendUvarint(b, uint64(len(specJSON)))
	b = append(b, specJSON...)
	b = binary.AppendUvarint(b, uint64(total))
	if e.shard {
		b = binary.AppendUvarint(b, uint64(e.start))
		b = binary.AppendUvarint(b, uint64(e.count))
	}
	b = binary.AppendUvarint(b, uint64(e.every))
	b = binary.LittleEndian.AppendUint64(b, hash)
	e.buf = b
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	// An empty-prefix checkpoint right after the header makes even a
	// sweep killed during trial 0 resumable.
	return e.checkpoint()
}

func (e *binaryEmitter) Trial(tr TrialResult) error {
	b := e.buf[:0]
	key := [6]string{tr.Algo, tr.Graph, tr.Mode, tr.Wake, tr.Delay, tr.Fault}
	cell, ok := e.cells[key]
	if !ok {
		cell = len(e.cells)
		e.cells[key] = cell
		b = append(b, binTagCell)
		for _, s := range key {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		b = binary.AppendUvarint(b, uint64(tr.N))
		b = binary.AppendUvarint(b, uint64(tr.M))
	}
	var flags byte
	if tr.Unique {
		flags |= binFlagUnique
	}
	if tr.Halted {
		flags |= binFlagHalted
	}
	if tr.HitRoundCap {
		flags |= binFlagHitRoundCap
	}
	if tr.LiveUnique {
		flags |= binFlagLiveUnique
	}
	if tr.Crashes != 0 || tr.Recoveries != 0 || tr.Dropped != 0 {
		flags |= binFlagFault
	}
	if tr.Err != "" {
		flags |= binFlagErr
	}
	if tr.Seed != TrialSeed(e.specSeed, tr.Rep) {
		flags |= binFlagSeed
	}
	b = append(b, binTagTrial)
	b = binary.AppendUvarint(b, uint64(cell))
	b = binary.AppendUvarint(b, uint64(tr.Rep))
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(tr.D))
	b = binary.AppendUvarint(b, uint64(tr.Rounds))
	b = binary.AppendUvarint(b, uint64(tr.LastActive))
	b = binary.AppendUvarint(b, uint64(tr.Messages))
	b = binary.AppendUvarint(b, uint64(tr.Bits))
	b = binary.AppendUvarint(b, uint64(tr.Leaders))
	if flags&binFlagSeed != 0 {
		b = binary.AppendUvarint(b, zigzag(tr.Seed))
	}
	if flags&binFlagFault != 0 {
		b = binary.AppendUvarint(b, uint64(tr.Crashes))
		b = binary.AppendUvarint(b, uint64(tr.Recoveries))
		b = binary.AppendUvarint(b, uint64(tr.Dropped))
	}
	if flags&binFlagErr != 0 {
		b = binary.AppendUvarint(b, uint64(len(tr.Err)))
		b = append(b, tr.Err...)
	}
	e.buf = b
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	e.written++
	if e.written%e.every == 0 && e.written < e.count {
		return e.checkpoint()
	}
	return nil
}

// checkpoint writes a checkpoint record and makes the prefix durable.
// The completed count is range-local (equal to the absolute count for
// full documents).
func (e *binaryEmitter) checkpoint() error {
	b := e.buf[:0]
	b = append(b, binTagCheckpoint)
	b = binary.AppendUvarint(b, uint64(e.written))
	b = binary.LittleEndian.AppendUint64(b, checkpointHash(e.ckSalt, e.written))
	e.buf = b
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	if err := e.w.Flush(); err != nil {
		return err
	}
	if e.syncFn != nil {
		return e.syncFn()
	}
	return nil
}

func (e *binaryEmitter) End(rep *Report) error {
	b := e.buf[:0]
	if e.shard {
		if e.written != e.count {
			return fmt.Errorf("harness: shard end after %d of %d trials", e.written, e.count)
		}
		b = append(b, binTagShardEnd)
		b = binary.AppendUvarint(b, uint64(e.start))
		b = binary.AppendUvarint(b, uint64(e.count))
		b = append(b, binEndMagic...)
	} else {
		groupsJSON, err := json.Marshal(rep.Groups)
		if err != nil {
			return err
		}
		b = append(b, binTagEnd)
		b = binary.AppendUvarint(b, uint64(len(groupsJSON)))
		b = append(b, groupsJSON...)
		b = binary.AppendUvarint(b, uint64(rep.Total))
		b = binary.AppendUvarint(b, uint64(rep.Errors))
		b = append(b, binEndMagic...)
	}
	e.buf = b
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	if err := e.w.Flush(); err != nil {
		return err
	}
	if e.syncFn != nil {
		if err := e.syncFn(); err != nil {
			return err
		}
	}
	if e.closer != nil {
		return e.closer.Close()
	}
	return nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binReader layers byte-offset accounting and bounds-checked primitives
// over a buffered reader; every decode path funnels through it so corrupt
// and truncated inputs surface as errors, never panics or giant
// allocations.
type binReader struct {
	r   *bufio.Reader
	off int64
}

func (br *binReader) ReadByte() (byte, error) {
	c, err := br.r.ReadByte()
	if err == nil {
		br.off++
	}
	return c, err
}

func (br *binReader) readFull(p []byte) error {
	n, err := io.ReadFull(br.r, p)
	br.off += int64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (br *binReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err == io.EOF && v == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	return v, err
}

// uvarintMax reads a uvarint and rejects values above max.
func (br *binReader) uvarintMax(max uint64, what string) (uint64, error) {
	v, err := br.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("harness: binary document: %s %d exceeds limit %d", what, v, max)
	}
	return v, nil
}

// readBlob reads n bytes in bounded chunks so a corrupt length claim
// costs allocation proportional to the data actually present, not to the
// claim — a truncated file asserting a 200 MB string fails after one
// 64 KB chunk.
func (br *binReader) readBlob(n uint64) ([]byte, error) {
	const chunk = 64 << 10
	cap0 := n
	if cap0 > chunk {
		cap0 = chunk
	}
	buf := make([]byte, 0, cap0)
	for uint64(len(buf)) < n {
		want := n - uint64(len(buf))
		if want > chunk {
			want = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, want)...)
		if err := br.readFull(buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (br *binReader) str(max uint64, what string) (string, error) {
	n, err := br.uvarintMax(max, what+" length")
	if err != nil {
		return "", err
	}
	buf, err := br.readBlob(n)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

func (br *binReader) uint64LE() (uint64, error) {
	var b [8]byte
	if err := br.readFull(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// binHeader is the decoded fixed header of a binary sweep document.
// Full documents have shard=false, start=0, count=total, ckSalt=specHash;
// shard documents carry their range and the salted checkpoint key.
type binHeader struct {
	specJSON []byte
	spec     Spec
	specSeed int64
	total    int
	every    int
	specHash uint64

	shard  bool
	start  int
	count  int
	ckSalt uint64
}

func readBinHeader(br *binReader) (*binHeader, error) {
	magic := make([]byte, len(binMagic))
	if err := br.readFull(magic); err != nil {
		return nil, fmt.Errorf("harness: not a %s document: %w", BinarySchemaVersion, err)
	}
	shard := bytes.Equal(magic, binShardMagic)
	if !shard && !bytes.Equal(magic, binMagic) {
		return nil, fmt.Errorf("harness: not a %s document (bad magic)", BinarySchemaVersion)
	}
	specLen, err := br.uvarintMax(maxBinGroups, "spec")
	if err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	specJSON, err := br.readBlob(specLen)
	if err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	total, err := br.uvarintMax(maxSweepTrials, "total")
	if err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	var start, count uint64
	if shard {
		if start, err = br.uvarintMax(1<<40, "shard start"); err != nil {
			return nil, fmt.Errorf("harness: binary header: %w", err)
		}
		if count, err = br.uvarintMax(1<<40, "shard count"); err != nil {
			return nil, fmt.Errorf("harness: binary header: %w", err)
		}
		if count == 0 || start+count > total {
			return nil, fmt.Errorf("harness: binary header: shard range [%d,%d) outside sweep of %d trials", start, start+count, total)
		}
	} else {
		count = total
	}
	every, err := br.uvarintMax(1<<40, "checkpoint cadence")
	if err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	if every == 0 {
		return nil, fmt.Errorf("harness: binary header: zero checkpoint cadence")
	}
	hash, err := br.uint64LE()
	if err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	if want := sweepSpecHash(specJSON, int(total)); hash != want {
		return nil, fmt.Errorf("harness: binary header: spec hash %016x does not match spec (%016x)", hash, want)
	}
	h := &binHeader{
		specJSON: specJSON, total: int(total), every: int(every), specHash: hash,
		shard: shard, start: int(start), count: int(count), ckSalt: hash,
	}
	if shard {
		h.ckSalt = shardSalt(hash, h.start, h.count)
	}
	if err := json.Unmarshal(specJSON, &h.spec); err != nil {
		return nil, fmt.Errorf("harness: binary header: invalid spec JSON: %w", err)
	}
	h.specSeed = h.spec.withDefaults().Seed
	return h, nil
}

type binCell struct {
	key  [6]string
	n, m int
}

// binTrailer is the decoded end record: a groups trailer (tag 0x04, full
// documents) or a shard end (tag 0x05, shard documents).
type binTrailer struct {
	groupsJSON []byte
	total      int
	errors     int

	shard bool
	start int
	count int
}

// readBinRecord decodes the next record after the header. Exactly one of
// the returns is meaningful per tag: a trial (tag 0x02), a completed
// count (tag 0x03), a trailer (tag 0x04); cell definitions (tag 0x01)
// mutate cells in place and return tag only. io.EOF is returned at a
// clean record boundary.
func readBinRecord(br *binReader, h *binHeader, cells *[]binCell, trialsSeen int) (tag byte, tr TrialResult, completed int, trailer *binTrailer, err error) {
	tag, err = br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, tr, 0, nil, io.EOF
		}
		return 0, tr, 0, nil, err
	}
	switch tag {
	case binTagCell:
		if len(*cells) >= maxBinCells {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: too many cell definitions")
		}
		var c binCell
		for i := range c.key {
			s, err := br.str(maxBinString, "cell string")
			if err != nil {
				return tag, tr, 0, nil, err
			}
			c.key[i] = s
		}
		n, err := br.uvarintMax(1<<40, "cell n")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		m, err := br.uvarintMax(1<<40, "cell m")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		c.n, c.m = int(n), int(m)
		*cells = append(*cells, c)
		return tag, tr, 0, nil, nil

	case binTagTrial:
		cellID, err := br.uvarint()
		if err != nil {
			return tag, tr, 0, nil, err
		}
		if cellID >= uint64(len(*cells)) {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: trial references undefined cell %d", cellID)
		}
		c := (*cells)[cellID]
		rep, err := br.uvarintMax(1<<40, "rep")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		flags, err := br.ReadByte()
		if err != nil {
			return tag, tr, 0, nil, unexpectedEOF(err)
		}
		if flags&^byte(binFlagsKnown) != 0 {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: unknown trial flags %02x", flags)
		}
		var vals [5]uint64
		for i, what := range []string{"d", "rounds", "last_active", "messages", "bits"} {
			vals[i], err = br.uvarintMax(1<<62, what)
			if err != nil {
				return tag, tr, 0, nil, err
			}
		}
		leaders, err := br.uvarintMax(1<<40, "leaders")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		tr = TrialResult{
			Trial: Trial{
				Index: trialsSeen,
				Algo:  c.key[0], Graph: c.key[1], Mode: c.key[2],
				Wake: c.key[3], Delay: c.key[4], Fault: c.key[5],
				Rep:  int(rep),
				Seed: TrialSeed(h.specSeed, int(rep)),
			},
			N: c.n, M: c.m,
			Outcome: Outcome{
				D:      int(vals[0]),
				Rounds: int(vals[1]), LastActive: int(vals[2]),
				Messages: int64(vals[3]), Bits: int64(vals[4]),
				Leaders:     int(leaders),
				Unique:      flags&binFlagUnique != 0,
				Halted:      flags&binFlagHalted != 0,
				HitRoundCap: flags&binFlagHitRoundCap != 0,
				LiveUnique:  flags&binFlagLiveUnique != 0,
			},
		}
		if flags&binFlagSeed != 0 {
			u, err := br.uvarint()
			if err != nil {
				return tag, tr, 0, nil, err
			}
			tr.Seed = unzigzag(u)
		}
		if flags&binFlagFault != 0 {
			crashes, err := br.uvarintMax(1<<40, "crashes")
			if err != nil {
				return tag, tr, 0, nil, err
			}
			recoveries, err := br.uvarintMax(1<<40, "recoveries")
			if err != nil {
				return tag, tr, 0, nil, err
			}
			dropped, err := br.uvarintMax(1<<62, "dropped")
			if err != nil {
				return tag, tr, 0, nil, err
			}
			tr.Crashes, tr.Recoveries, tr.Dropped = int(crashes), int(recoveries), int64(dropped)
		}
		if flags&binFlagErr != 0 {
			s, err := br.str(maxBinString, "trial error")
			if err != nil {
				return tag, tr, 0, nil, err
			}
			tr.Err = s
		}
		return tag, tr, 0, nil, nil

	case binTagCheckpoint:
		done, err := br.uvarintMax(1<<40, "checkpoint completed")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		hash, err := br.uint64LE()
		if err != nil {
			return tag, tr, 0, nil, err
		}
		if hash != checkpointHash(h.ckSalt, int(done)) {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: checkpoint hash mismatch at %d trials", done)
		}
		return tag, tr, int(done), nil, nil

	case binTagEnd:
		if h.shard {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: groups trailer inside a shard document")
		}
		groupsJSON, err := br.str(maxBinGroups, "groups trailer")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		total, err := br.uvarintMax(1<<40, "trailer total")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		errCount, err := br.uvarintMax(1<<40, "trailer errors")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		endMagic := make([]byte, len(binEndMagic))
		if err := br.readFull(endMagic); err != nil {
			return tag, tr, 0, nil, err
		}
		if !bytes.Equal(endMagic, binEndMagic) {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: bad end magic")
		}
		return tag, tr, 0, &binTrailer{groupsJSON: []byte(groupsJSON), total: int(total), errors: int(errCount)}, nil

	case binTagShardEnd:
		if !h.shard {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: shard end inside a full document")
		}
		start, err := br.uvarintMax(1<<40, "shard end start")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		count, err := br.uvarintMax(1<<40, "shard end count")
		if err != nil {
			return tag, tr, 0, nil, err
		}
		endMagic := make([]byte, len(binEndMagic))
		if err := br.readFull(endMagic); err != nil {
			return tag, tr, 0, nil, err
		}
		if !bytes.Equal(endMagic, binEndMagic) {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: bad end magic")
		}
		if int(start) != h.start || int(count) != h.count {
			return tag, tr, 0, nil, fmt.Errorf("harness: binary document: shard end range [%d,%d) disagrees with header [%d,%d)",
				start, start+count, h.start, h.start+h.count)
		}
		return tag, tr, 0, &binTrailer{shard: true, start: int(start), count: int(count)}, nil

	default:
		return tag, tr, 0, nil, fmt.Errorf("harness: binary document: unknown record tag %02x", tag)
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBinary drives a full sequential decode: header, then records
// until the end trailer. onTrial may be nil. It enforces record-level
// invariants (trial count monotonicity, checkpoint consistency, nothing
// after the trailer).
func decodeBinary(r io.Reader, onTrial func(TrialResult) error) (*binHeader, *binTrailer, error) {
	br := &binReader{r: bufio.NewReaderSize(r, 1<<16)}
	h, err := readBinHeader(br)
	if err != nil {
		return nil, nil, err
	}
	if h.shard {
		return nil, nil, fmt.Errorf("harness: %s is a shard document; merge shards with MergeShards first", ShardSchemaVersion)
	}
	var cells []binCell
	trials := 0
	for {
		tag, tr, completed, trailer, err := readBinRecord(br, h, &cells, trials)
		if err == io.EOF {
			return h, nil, fmt.Errorf("harness: binary document: missing end trailer (stream ends after %d trials)", trials)
		}
		if err != nil {
			return h, nil, err
		}
		switch tag {
		case binTagTrial:
			if trials >= h.total {
				return h, nil, fmt.Errorf("harness: binary document: more trials than the declared %d", h.total)
			}
			trials++
			if onTrial != nil {
				if err := onTrial(tr); err != nil {
					return h, nil, err
				}
			}
		case binTagCheckpoint:
			if completed != trials {
				return h, nil, fmt.Errorf("harness: binary document: checkpoint claims %d trials, saw %d", completed, trials)
			}
		case binTagEnd:
			if trials != h.total || trailer.total != h.total {
				return h, trailer, fmt.Errorf("harness: binary document: trailer declares %d/%d trials, saw %d",
					trailer.total, h.total, trials)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return h, trailer, fmt.Errorf("harness: binary document: trailing data after end record")
			}
			return h, trailer, nil
		}
	}
}

// DecodeBinaryTrials streams the trial records of a complete
// ule-sweepbin/v1 document from r, calling fn once per trial in index
// order with O(1) memory. Incomplete (checkpoint-only) files are the
// domain of InspectBinary/ResumeBinary and are rejected here.
func DecodeBinaryTrials(r io.Reader, fn func(TrialResult) error) error {
	_, _, err := decodeBinary(r, fn)
	return err
}

// ParseBinary decodes a complete ule-sweepbin/v1 document into the same
// Document shape ParseDocument yields for the JSON format (Schema is set
// to BinarySchemaVersion). Corrupt or truncated input returns an error,
// never a panic.
func ParseBinary(data []byte) (*Document, error) {
	doc := &Document{Schema: BinarySchemaVersion}
	h, trailer, err := decodeBinary(bytes.NewReader(data), func(tr TrialResult) error {
		doc.Trials = append(doc.Trials, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	doc.Spec = h.spec
	doc.TotalTrials = trailer.total
	doc.Errors = trailer.errors
	if len(trailer.groupsJSON) > 0 {
		if err := json.Unmarshal(trailer.groupsJSON, &doc.Groups); err != nil {
			return nil, fmt.Errorf("harness: binary document: invalid groups trailer: %w", err)
		}
	}
	return doc, nil
}

// ExportJSON re-encodes a complete binary sweep stream as the
// ule-sweep/v3 JSON document, byte-identical to what NewJSONEmitter
// produced during the original run: the spec echo and groups trailer are
// stored verbatim in the binary stream, and the trial records go through
// the same appendTrialJSON encoder the live emitter uses.
func ExportJSON(r io.Reader, w io.Writer) error {
	br := &binReader{r: bufio.NewReaderSize(r, 1<<16)}
	h, err := readBinHeader(br)
	if err != nil {
		return err
	}
	if h.shard {
		return fmt.Errorf("harness: %s is a shard document; merge shards with MergeShards first", ShardSchemaVersion)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "{\"schema\":%q,\n\"spec\":%s,\n\"trials\":[", SchemaVersion, h.specJSON); err != nil {
		return err
	}
	var buf []byte
	var cells []binCell
	trials := 0
	for {
		tag, tr, completed, trailer, err := readBinRecord(br, h, &cells, trials)
		if err == io.EOF {
			return fmt.Errorf("harness: binary document: missing end trailer (stream ends after %d trials)", trials)
		}
		if err != nil {
			return err
		}
		switch tag {
		case binTagTrial:
			b := buf[:0]
			if trials == 0 {
				b = append(b, '\n')
			} else {
				b = append(b, ',', '\n')
			}
			b = appendTrialJSON(b, &tr)
			buf = b
			if _, err := bw.Write(b); err != nil {
				return err
			}
			trials++
		case binTagCheckpoint:
			if completed != trials {
				return fmt.Errorf("harness: binary document: checkpoint claims %d trials, saw %d", completed, trials)
			}
		case binTagEnd:
			if trials != h.total || trailer.total != h.total {
				return fmt.Errorf("harness: binary document: trailer declares %d/%d trials, saw %d", trailer.total, h.total, trials)
			}
			if _, err := fmt.Fprintf(bw, "\n],\n\"groups\":%s,\n\"total_trials\":%d,\n\"errors\":%d}\n",
				trailer.groupsJSON, trailer.total, trailer.errors); err != nil {
				return err
			}
			return bw.Flush()
		}
	}
}

// SweepCheckpoint describes the durable prefix of a (possibly
// interrupted) binary sweep file: how many leading trials survived, and
// everything needed to verify a resuming spec and replay the prefix into
// the aggregator. Obtain one with InspectBinary (read-only) or
// ResumeBinary (truncates the file and returns the continuation emitter).
type SweepCheckpoint struct {
	// Spec is the sweep spec echoed in the file header.
	Spec Spec
	// Total is the declared trial count of the full sweep.
	Total int
	// Start and Count delimit the trial range [Start, Start+Count) the
	// file covers: 0 and Total for full documents, the shard range for
	// shard documents.
	Start int
	Count int
	// Completed is the length of the durable trial prefix, counted from
	// Start (range-local).
	Completed int
	// Done reports a complete document (end trailer present).
	Done bool

	shard    bool
	specHash uint64
	path     string
	offset   int64 // byte length of the durable prefix
	cells    int   // cell definitions within the durable prefix
	every    int
}

// check verifies that the resuming sweep (by its spec hash) matches the
// checkpoint.
func (ck *SweepCheckpoint) check(hash uint64) error {
	if hash != ck.specHash {
		return fmt.Errorf("harness: resume spec mismatch: sweep expands to hash %016x, checkpoint has %016x", hash, ck.specHash)
	}
	if ck.Done {
		return ErrSweepComplete
	}
	if ck.Completed > ck.Count {
		return fmt.Errorf("harness: checkpoint claims %d of %d trials", ck.Completed, ck.Count)
	}
	return nil
}

// CheckPlan verifies that the checkpoint file belongs to p's sweep: the
// file header's spec hash must be the plan's. The fleet coordinator uses
// it to detect corrupt or foreign shards without touching the file.
func (ck *SweepCheckpoint) CheckPlan(p *Plan) error {
	if p.hash != ck.specHash {
		return fmt.Errorf("harness: %s: spec hash %016x does not match sweep (%016x)", ck.path, ck.specHash, p.hash)
	}
	return nil
}

// replay streams the durable prefix trials (in index order) to fn; Run
// uses it to rebuild the aggregator state before executing the suffix.
func (ck *SweepCheckpoint) replay(fn func(TrialResult) error) error {
	if ck.Completed == 0 {
		return nil
	}
	f, err := os.Open(ck.path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := &binReader{r: bufio.NewReaderSize(f, 1<<16)}
	h, err := readBinHeader(br)
	if err != nil {
		return err
	}
	var cells []binCell
	trials := 0
	for trials < ck.Completed {
		tag, tr, _, _, err := readBinRecord(br, h, &cells, h.start+trials)
		if err != nil {
			return unexpectedEOF(err)
		}
		switch tag {
		case binTagTrial:
			trials++
			if err := fn(tr); err != nil {
				return err
			}
		case binTagEnd:
			return fmt.Errorf("harness: checkpoint file has an end trailer before %d trials", ck.Completed)
		}
	}
	return nil
}

// scanCheckpoint reads as much of a binary sweep file as is intact and
// returns the state at the last valid checkpoint (or trailer). Damage
// past that point — a torn record from a killed process, trailing
// garbage — is reported via durable=false for the tail, never an error,
// as long as the header itself is sound. wantShard selects which of the
// two document kinds the caller expects; the other kind is an error.
func scanCheckpoint(path string, wantShard bool) (*SweepCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := &binReader{r: bufio.NewReaderSize(f, 1<<16)}
	h, err := readBinHeader(br)
	if err != nil {
		return nil, err
	}
	if h.shard != wantShard {
		if h.shard {
			return nil, fmt.Errorf("harness: %s: shard document (use InspectShard/ResumeShard)", path)
		}
		return nil, fmt.Errorf("harness: %s: full document, not a shard", path)
	}
	ck := &SweepCheckpoint{
		Spec:     h.spec,
		Total:    h.total,
		Start:    h.start,
		Count:    h.count,
		shard:    h.shard,
		specHash: h.specHash,
		path:     path,
		offset:   -1, // no durable checkpoint seen yet
		every:    h.every,
	}
	var cells []binCell
	trials := 0
	for {
		tag, _, completed, trailer, err := readBinRecord(br, h, &cells, h.start+trials)
		if err != nil {
			// io.EOF at a record boundary and any torn/corrupt tail both
			// mean: resume from the last durable checkpoint.
			break
		}
		switch tag {
		case binTagTrial:
			if trials >= h.count {
				return nil, fmt.Errorf("harness: binary document: more trials than the declared %d", h.count)
			}
			trials++
		case binTagCheckpoint:
			if completed != trials {
				// A checkpoint that disagrees with the stream is corruption;
				// stop trusting the file here.
				return finishScan(ck)
			}
			ck.Completed = trials
			ck.offset = br.off
			ck.cells = len(cells)
		case binTagEnd, binTagShardEnd:
			if (trailer.shard || trailer.total == h.total) && trials == h.count {
				ck.Completed = trials
				ck.offset = br.off
				ck.cells = len(cells)
				ck.Done = true
			}
			return finishScan(ck)
		}
	}
	return finishScan(ck)
}

// finishScan rejects files with no durable checkpoint at all (the header
// checkpoint is written before the first trial, so its absence means the
// header never became durable).
func finishScan(ck *SweepCheckpoint) (*SweepCheckpoint, error) {
	if ck.offset < 0 {
		return nil, fmt.Errorf("harness: %s: no durable checkpoint (file not resumable)", ck.path)
	}
	return ck, nil
}

// InspectBinary reports the durable state of a binary sweep file without
// modifying it.
func InspectBinary(path string) (*SweepCheckpoint, error) {
	return scanCheckpoint(path, false)
}

// InspectShard reports the durable state of a shard file without
// modifying it.
func InspectShard(path string) (*SweepCheckpoint, error) {
	return scanCheckpoint(path, true)
}

// ResumeBinary prepares an interrupted binary sweep for continuation: it
// finds the last durable checkpoint, truncates any torn tail past it,
// and returns the checkpoint plus an emitter that appends the remaining
// records to the same file. Pass both to Run (RunConfig.Resume and
// RunConfig.Emitters); the finished file is byte-identical to an
// uninterrupted run. Returns ErrSweepComplete if the file already holds
// the end trailer.
func ResumeBinary(path string) (*SweepCheckpoint, Emitter, error) {
	return resumeFile(path, false)
}

// ResumeShard is ResumeBinary for shard files: the returned checkpoint
// carries the shard range, and the emitter continues the same shard.
// Pass RunConfig.Range matching (Start, Count) alongside Resume.
func ResumeShard(path string) (*SweepCheckpoint, Emitter, error) {
	return resumeFile(path, true)
}

func resumeFile(path string, shard bool) (*SweepCheckpoint, Emitter, error) {
	ck, err := scanCheckpoint(path, shard)
	if err != nil {
		return nil, nil, err
	}
	if ck.Done {
		return ck, nil, ErrSweepComplete
	}
	if err := os.Truncate(path, ck.offset); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Re-prime the emitter exactly as it was after writing the durable
	// prefix: cell table, trial count, checkpoint cadence.
	salt := ck.specHash
	if shard {
		salt = shardSalt(ck.specHash, ck.Start, ck.Count)
	}
	e := &binaryEmitter{
		w:        bufio.NewWriterSize(f, 1<<16),
		syncFn:   f.Sync,
		closer:   f,
		cells:    make(map[[6]string]int, ck.cells),
		specHash: ck.specHash,
		ckSalt:   salt,
		total:    ck.Total,
		written:  ck.Completed,
		every:    ck.every,
		resumed:  true,
		shard:    shard,
		start:    ck.Start,
		count:    ck.Count,
	}
	if err := primeCells(path, ck, e.cells); err != nil {
		f.Close()
		return nil, nil, err
	}
	return ck, e, nil
}

// primeCells rebuilds the emitter's cell table from the durable prefix.
func primeCells(path string, ck *SweepCheckpoint, out map[[6]string]int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := &binReader{r: bufio.NewReaderSize(f, 1<<16)}
	h, err := readBinHeader(br)
	if err != nil {
		return err
	}
	var cells []binCell
	trials := 0
	for len(cells) < ck.cells || trials < ck.Completed {
		tag, _, _, _, err := readBinRecord(br, h, &cells, trials)
		if err != nil {
			return unexpectedEOF(err)
		}
		if tag == binTagTrial {
			trials++
		}
	}
	for i, c := range cells[:ck.cells] {
		out[c.key] = i
	}
	return nil
}
