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
	e.specSeed = spec.withDefaults().Seed
	if e.resumed {
		// The header is already on disk; just verify the caller is
		// continuing the same sweep.
		if hash != e.specHash || total != e.total {
			return fmt.Errorf("harness: resume spec mismatch (hash %016x != checkpoint %016x)", hash, e.specHash)
		}
		return nil
	}
	magic := binMagic
	e.specHash, e.ckSalt, e.total = hash, hash, total
	if e.shard {
		if e.start < 0 || e.count <= 0 || e.start+e.count > total {
			return fmt.Errorf("harness: shard range [%d,%d) outside sweep of %d trials", e.start, e.start+e.count, total)
		}
		magic, e.ckSalt = binShardMagic, shardSalt(hash, e.start, e.count)
	} else {
		e.start, e.count = 0, total
	}
	b := append(e.buf[:0], magic...)
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
	return e.commit(b)
}

// commit writes b and makes the stream so far durable: flush, then fsync
// when the writer is a file.
func (e *binaryEmitter) commit(b []byte) error {
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
	if err := e.commit(b); err != nil {
		return err
	}
	return e.Close()
}

// Close releases the file a resumed emitter owns (ResumeBinary,
// ResumeShard); emitters built over a caller's writer own nothing and
// Close does nothing. End calls it, so only a sweep that stops before End
// has to; calling it again is harmless.
func (e *binaryEmitter) Close() error {
	if e.closer == nil {
		return nil
	}
	c := e.closer
	e.closer = nil
	return c.Close()
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binReader layers byte-offset accounting and bounds-checked primitives
// over a buffered reader; every decode path funnels through it so corrupt
// and truncated inputs surface as errors, never panics or giant
// allocations. The first failure sticks in err and every later read is a
// no-op yielding zero, so a record decoder reads its fields in a row and
// checks err once — but always before it indexes by a value it read (a
// zero length allocates nothing).
type binReader struct {
	r   *bufio.Reader
	off int64
	err error
}

// ReadByte is the raw read under uvarint, and the scanner's tag read:
// between records is the one place io.EOF is a clean end, not a torn
// record.
func (br *binReader) ReadByte() (byte, error) {
	c, err := br.r.ReadByte()
	if err == nil {
		br.off++
	}
	return c, err
}

// fail records the first error; running out of input inside a record is
// io.ErrUnexpectedEOF whichever primitive hit it.
func (br *binReader) fail(err error) {
	if br.err == nil && err != nil {
		br.err = unexpectedEOF(err)
	}
}

func (br *binReader) readFull(p []byte) {
	if br.err == nil {
		n, err := io.ReadFull(br.r, p)
		br.off += int64(n)
		br.fail(err)
	}
}

func (br *binReader) byte() byte {
	if br.err != nil {
		return 0
	}
	c, err := br.ReadByte()
	br.fail(err)
	return c
}

func (br *binReader) uvarint() uint64 {
	if br.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		br.fail(err)
		return 0 // not the partial value: a failed read yields zero
	}
	return v
}

// uvarintMax reads a uvarint and rejects values above max.
func (br *binReader) uvarintMax(max uint64, what string) uint64 {
	v := br.uvarint()
	if v > max {
		br.fail(fmt.Errorf("harness: binary document: %s %d exceeds limit %d", what, v, max))
		return 0
	}
	return v
}

// blob reads a length-prefixed byte string of at most max bytes, in
// bounded chunks so a corrupt length claim costs allocation proportional
// to the data actually present, not to the claim — a truncated file
// asserting a 200 MB string fails after one 64 KB chunk.
func (br *binReader) blob(max uint64, what string) []byte {
	const chunk = 64 << 10
	n := br.uvarintMax(max, what+" length")
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n && br.err == nil {
		start := len(buf)
		buf = append(buf, make([]byte, min(n-uint64(start), chunk))...)
		br.readFull(buf[start:])
	}
	return buf
}

func (br *binReader) uint64LE() uint64 {
	var b [8]byte
	br.readFull(b[:])
	return binary.LittleEndian.Uint64(b[:])
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
	if br.readFull(magic); br.err != nil {
		return nil, fmt.Errorf("harness: not a %s document: %w", BinarySchemaVersion, br.err)
	}
	h := &binHeader{shard: bytes.Equal(magic, binShardMagic)}
	if !h.shard && !bytes.Equal(magic, binMagic) {
		return nil, fmt.Errorf("harness: not a %s document (bad magic)", BinarySchemaVersion)
	}
	if err := h.readFields(br); err != nil {
		return nil, fmt.Errorf("harness: binary header: %w", err)
	}
	return h, nil
}

// readFields decodes and cross-checks everything after the magic.
func (h *binHeader) readFields(br *binReader) error {
	h.specJSON = br.blob(maxBinGroups, "spec")
	h.total = int(br.uvarintMax(maxSweepTrials, "total"))
	h.count = h.total
	if h.shard {
		h.start = int(br.uvarintMax(1<<40, "shard start"))
		h.count = int(br.uvarintMax(1<<40, "shard count"))
	}
	h.every = int(br.uvarintMax(1<<40, "checkpoint cadence"))
	h.specHash = br.uint64LE()
	h.ckSalt = h.specHash
	if h.shard {
		h.ckSalt = shardSalt(h.specHash, h.start, h.count)
	}
	switch want := sweepSpecHash(h.specJSON, h.total); {
	case br.err != nil:
		return br.err
	case h.shard && (h.count == 0 || h.start+h.count > h.total):
		return fmt.Errorf("shard range [%d,%d) outside sweep of %d trials", h.start, h.start+h.count, h.total)
	case h.every == 0:
		return errors.New("zero checkpoint cadence")
	case h.specHash != want:
		return fmt.Errorf("spec hash %016x does not match spec (%016x)", h.specHash, want)
	}
	if err := json.Unmarshal(h.specJSON, &h.spec); err != nil {
		return fmt.Errorf("invalid spec JSON: %w", err)
	}
	h.specSeed = h.spec.withDefaults().Seed
	return nil
}

type binCell struct {
	key  [6]string
	n, m int
}

// binTrailer is the decoded groups trailer of a full document's end
// record (tag 0x04). A shard's end record (tag 0x05) carries only its
// range, which must repeat the header's, so its trailer holds nothing
// but the header's total.
type binTrailer struct {
	groupsJSON []byte
	groups     []GroupStats
	total      int
	errors     int
}

// binScanner is the one reader of the record stream behind a binary
// header, full document and shard alike: every decode path is a loop over
// next, which yields one tagged record at a time and is the only place
// the stream invariants are enforced:
//
//   - no more trial records than the header's count (the shard's count,
//     for a shard document);
//   - a checkpoint's completed count equals the trials seen before it,
//     and its hash is the header's for that count;
//   - the end record is of the header's kind, comes after exactly count
//     trials, repeats the header's total (full) or range (shard), and its
//     groups trailer parses;
//   - nothing follows the end record;
//   - io.EOF is returned only at a clean record boundary.
//
// Clients differ in what they do between records, not in what they
// check: the strict decoders demand the end record (decode), the
// checkpoint scan takes the first error for the torn tail and falls back
// to the last durable point (scanCheckpoint), the prefix stream stops at
// a trial count a scan already vouched for (prefixStream).
type binScanner struct {
	br    binReader
	h     *binHeader
	cells []binCell

	trials  int         // trial records seen so far (range-local)
	trial   TrialResult // the trial next last yielded
	trailer *binTrailer // the end record, once seen

	// The last durable point: the stream state just past the most recent
	// checkpoint or end record, which the writer fsyncs right after.
	// off < 0 until one has been seen.
	durable struct {
		off           int64
		trials, cells int
	}
}

func newBinScanner(r io.Reader) (*binScanner, error) {
	sc := &binScanner{br: binReader{r: bufio.NewReaderSize(r, 1<<16)}}
	sc.durable.off = -1
	var err error
	sc.h, err = readBinHeader(&sc.br)
	return sc, err
}

// next decodes the following record and returns its tag. A trial (tag
// 0x02) is left in sc.trial with its absolute index, the end record in
// sc.trailer; cell definitions and checkpoints only update the scanner.
func (sc *binScanner) next() (byte, error) {
	tag, err := sc.br.ReadByte()
	if err == nil && sc.trailer != nil {
		err = errors.New("harness: binary document: trailing data after end record")
	}
	if err != nil {
		return 0, err
	}
	switch tag {
	case binTagCell:
		err = sc.readCell()
	case binTagTrial:
		err = sc.readTrial()
	case binTagCheckpoint:
		err = sc.readCheckpoint()
	case binTagEnd, binTagShardEnd:
		err = sc.readEnd(tag)
	default:
		err = fmt.Errorf("harness: binary document: unknown record tag %02x", tag)
	}
	return tag, err
}

func (sc *binScanner) readCell() error {
	if len(sc.cells) >= maxBinCells {
		return errors.New("harness: binary document: too many cell definitions")
	}
	br := &sc.br
	var c binCell
	for i := range c.key {
		c.key[i] = string(br.blob(maxBinString, "cell string"))
	}
	c.n = int(br.uvarintMax(1<<40, "cell n"))
	c.m = int(br.uvarintMax(1<<40, "cell m"))
	if br.err == nil {
		sc.cells = append(sc.cells, c)
	}
	return br.err
}

func (sc *binScanner) readTrial() error {
	if sc.trials >= sc.h.count {
		return fmt.Errorf("harness: binary document: more trials than the declared %d", sc.h.count)
	}
	br := &sc.br
	cellID := br.uvarint()
	if br.err != nil {
		return br.err
	}
	if cellID >= uint64(len(sc.cells)) {
		return fmt.Errorf("harness: binary document: trial references undefined cell %d", cellID)
	}
	c := &sc.cells[cellID]
	rep := int(br.uvarintMax(1<<40, "rep"))
	flags := br.byte()
	if flags&^byte(binFlagsKnown) != 0 {
		return fmt.Errorf("harness: binary document: unknown trial flags %02x", flags)
	}
	tr := &sc.trial
	*tr = TrialResult{
		Trial: Trial{
			Index: sc.h.start + sc.trials,
			Algo:  c.key[0], Graph: c.key[1], Mode: c.key[2],
			Wake: c.key[3], Delay: c.key[4], Fault: c.key[5],
			Rep:  rep,
			Seed: TrialSeed(sc.h.specSeed, rep),
		},
		N: c.n, M: c.m,
	}
	tr.D = int(br.uvarintMax(1<<62, "d"))
	tr.Rounds = int(br.uvarintMax(1<<62, "rounds"))
	tr.LastActive = int(br.uvarintMax(1<<62, "last_active"))
	tr.Messages = int64(br.uvarintMax(1<<62, "messages"))
	tr.Bits = int64(br.uvarintMax(1<<62, "bits"))
	tr.Leaders = int(br.uvarintMax(1<<40, "leaders"))
	tr.Unique = flags&binFlagUnique != 0
	tr.Halted = flags&binFlagHalted != 0
	tr.HitRoundCap = flags&binFlagHitRoundCap != 0
	tr.LiveUnique = flags&binFlagLiveUnique != 0
	if flags&binFlagSeed != 0 {
		tr.Seed = unzigzag(br.uvarint())
	}
	if flags&binFlagFault != 0 {
		tr.Crashes = int(br.uvarintMax(1<<40, "crashes"))
		tr.Recoveries = int(br.uvarintMax(1<<40, "recoveries"))
		tr.Dropped = int64(br.uvarintMax(1<<62, "dropped"))
	}
	if flags&binFlagErr != 0 {
		tr.Err = string(br.blob(maxBinString, "trial error"))
	}
	if br.err == nil {
		sc.trials++
	}
	return br.err
}

func (sc *binScanner) readCheckpoint() error {
	done := int(sc.br.uvarintMax(1<<40, "checkpoint completed"))
	hash := sc.br.uint64LE()
	switch {
	case sc.br.err != nil:
		return sc.br.err
	case hash != checkpointHash(sc.h.ckSalt, done):
		return fmt.Errorf("harness: binary document: checkpoint hash mismatch at %d trials", done)
	case done != sc.trials:
		return fmt.Errorf("harness: binary document: checkpoint claims %d trials, saw %d", done, sc.trials)
	}
	sc.markDurable()
	return nil
}

func (sc *binScanner) markDurable() {
	sc.durable.off, sc.durable.trials, sc.durable.cells = sc.br.off, sc.trials, len(sc.cells)
}

func (sc *binScanner) readEnd(tag byte) error {
	br, h := &sc.br, sc.h
	if h.shard != (tag == binTagShardEnd) {
		return fmt.Errorf("harness: binary document: end record %02x belongs to the other document kind", tag)
	}
	t := &binTrailer{total: h.total}
	start, count := h.start, h.count
	if h.shard {
		start = int(br.uvarintMax(1<<40, "shard end start"))
		count = int(br.uvarintMax(1<<40, "shard end count"))
	} else {
		t.groupsJSON = br.blob(maxBinGroups, "groups trailer")
		t.total = int(br.uvarintMax(1<<40, "trailer total"))
		t.errors = int(br.uvarintMax(1<<40, "trailer errors"))
	}
	endMagic := make([]byte, len(binEndMagic))
	br.readFull(endMagic)
	switch {
	case br.err != nil:
		return br.err
	case !bytes.Equal(endMagic, binEndMagic):
		return errors.New("harness: binary document: bad end magic")
	case start != h.start || count != h.count:
		return fmt.Errorf("harness: binary document: shard end range [%d,%d) disagrees with header [%d,%d)",
			start, start+count, h.start, h.start+h.count)
	case sc.trials != h.count || t.total != h.total:
		return fmt.Errorf("harness: binary document: end record declares %d/%d trials after %d of %d",
			t.total, h.total, sc.trials, h.count)
	}
	// The exporters copy the groups bytes verbatim and ParseBinary decodes
	// them; checking here is what makes the two accept the same documents.
	if !h.shard {
		if err := json.Unmarshal(t.groupsJSON, &t.groups); err != nil {
			return fmt.Errorf("harness: binary document: invalid groups trailer: %w", err)
		}
	}
	sc.trailer = t
	sc.markDurable()
	return nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// openBinary starts a strict decode of a complete full document.
func openBinary(r io.Reader) (*binScanner, error) {
	sc, err := newBinScanner(r)
	if err != nil {
		return nil, err
	}
	if sc.h.shard {
		return nil, fmt.Errorf("harness: %s is a shard document; merge shards with MergeShards first", ShardSchemaVersion)
	}
	return sc, nil
}

// decode drives the rest of a strict decode: every trial goes to onTrial
// in index order (the record is the scanner's, good until the next one),
// and the stream must close with the end record and then the end of
// input.
func (sc *binScanner) decode(onTrial func(*TrialResult) error) (*binTrailer, error) {
	for {
		switch tag, err := sc.next(); {
		case err == io.EOF && sc.trailer != nil:
			return sc.trailer, nil
		case err == io.EOF:
			return nil, fmt.Errorf("harness: binary document: missing end trailer (stream ends after %d trials)", sc.trials)
		case err != nil:
			return nil, err
		case tag == binTagTrial:
			if err := onTrial(&sc.trial); err != nil {
				return nil, err
			}
		}
	}
}

// DecodeBinaryTrials streams the trial records of a complete
// ule-sweepbin/v1 document from r, calling fn once per trial in index
// order with O(1) memory. Incomplete (checkpoint-only) files are the
// domain of InspectBinary/ResumeBinary and are rejected here.
func DecodeBinaryTrials(r io.Reader, fn func(TrialResult) error) error {
	sc, err := openBinary(r)
	if err != nil {
		return err
	}
	_, err = sc.decode(func(tr *TrialResult) error { return fn(*tr) })
	return err
}

// ParseBinary decodes a complete ule-sweepbin/v1 document into the same
// Document shape ParseDocument yields for the JSON format (Schema is set
// to BinarySchemaVersion). Corrupt or truncated input returns an error,
// never a panic.
func ParseBinary(data []byte) (*Document, error) {
	sc, err := openBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	doc := &Document{Schema: BinarySchemaVersion, Spec: sc.h.spec}
	t, err := sc.decode(func(tr *TrialResult) error {
		doc.Trials = append(doc.Trials, *tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	doc.Groups, doc.TotalTrials, doc.Errors = t.groups, t.total, t.errors
	return doc, nil
}

// ExportJSON re-encodes a complete binary sweep stream as the
// ule-sweep/v3 JSON document, byte-identical to what NewJSONEmitter
// produced during the original run: it is that emitter, fed the header's
// spec echo and the trailer's groups verbatim instead of marshalling
// them, with the scanner's trials in between.
func ExportJSON(r io.Reader, w io.Writer) error {
	sc, err := openBinary(r)
	if err != nil {
		return err
	}
	e := newTextEmitter(w, &jsonLayout)
	if err := e.begin(sc.h.specJSON, sc.h.total); err != nil {
		return err
	}
	t, err := sc.decode(e.row)
	if err != nil {
		return err
	}
	return e.end(t.groupsJSON, t.total, t.errors)
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

	specHash uint64
	ckSalt   uint64
	path     string
	offset   int64     // byte length of the durable prefix
	cells    []binCell // cell definitions within the durable prefix
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

// prefixStream sequentially decodes the durable trial prefix of one
// checkpointed file; sc.trial is the next undelivered trial (absolute
// index) while ok.
type prefixStream struct {
	f     *os.File
	sc    *binScanner
	limit int // durable prefix length, from the scan that made the checkpoint
	ok    bool
}

func openPrefixStream(ck *SweepCheckpoint) (*prefixStream, error) {
	f, err := os.Open(ck.path)
	if err != nil {
		return nil, err
	}
	sc, err := newBinScanner(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &prefixStream{f: f, sc: sc, limit: ck.Completed}, nil
}

// next advances to the following trial record, or sets ok=false when the
// durable prefix is exhausted. Decode errors inside the durable prefix
// are real errors — the scan already vouched for these bytes.
func (s *prefixStream) next() error {
	s.ok = false
	for s.sc.trials < s.limit && !s.ok {
		tag, err := s.sc.next()
		if err != nil {
			return fmt.Errorf("harness: %s: %w", s.f.Name(), unexpectedEOF(err))
		}
		s.ok = tag == binTagTrial
	}
	return nil
}

// replay folds the durable prefix trials (in index order) into the tail's
// aggregator; Run uses it to rebuild that state before executing the
// suffix. The emitters are not fed: the prefix is already in their file.
func (ck *SweepCheckpoint) replay(t *sweepTail) error {
	s, err := openPrefixStream(ck)
	if err != nil {
		return err
	}
	defer s.f.Close()
	for {
		if err := s.next(); err != nil || !s.ok {
			return err
		}
		t.agg.add(&s.sc.trial)
	}
}

// scanCheckpoint reads as much of a binary sweep file as is intact and
// returns the state at the last valid checkpoint (or trailer). Damage
// past that point — a torn record from a killed process, trailing
// garbage — is never an error, as long as the header itself is sound.
// wantShard selects which of the two document kinds the caller expects;
// the other kind is an error.
func scanCheckpoint(path string, wantShard bool) (*SweepCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := newBinScanner(f)
	if err != nil {
		return nil, err
	}
	h := sc.h
	if h.shard != wantShard {
		if h.shard {
			return nil, fmt.Errorf("harness: %s: shard document (use InspectShard/ResumeShard)", path)
		}
		return nil, fmt.Errorf("harness: %s: full document, not a shard", path)
	}
	// io.EOF at a record boundary, a torn or corrupt record, a checkpoint
	// that disagrees with the stream: each means stop trusting the file
	// here and resume from the last durable point.
	for err == nil {
		_, err = sc.next()
	}
	// The header checkpoint is written before the first trial, so its
	// absence means the header never became durable.
	if sc.durable.off < 0 {
		return nil, fmt.Errorf("harness: %s: no durable checkpoint (file not resumable)", path)
	}
	return &SweepCheckpoint{
		Spec:      h.spec,
		Total:     h.total,
		Start:     h.start,
		Count:     h.count,
		Completed: sc.durable.trials,
		Done:      sc.trailer != nil,
		specHash:  h.specHash,
		ckSalt:    h.ckSalt,
		path:      path,
		offset:    sc.durable.off,
		cells:     sc.cells[:sc.durable.cells],
		every:     h.every,
	}, nil
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
// uninterrupted run. The emitter owns the open file and is an io.Closer:
// End closes it, and a sweep abandoned before End must call Close.
// Returns ErrSweepComplete if the file already holds the end trailer.
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
	e := NewBinaryEmitter(f, BinaryOptions{CheckpointEvery: ck.every}).(*binaryEmitter)
	e.closer, e.resumed = f, true
	e.specHash, e.ckSalt, e.total, e.written = ck.specHash, ck.ckSalt, ck.Total, ck.Completed
	e.shard, e.start, e.count = shard, ck.Start, ck.Count
	for i, c := range ck.cells {
		e.cells[c.key] = i
	}
	return ck, e, nil
}
