package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// binarySpec is a matrix with fault cells, async delays, and enough
// trials to cross several checkpoints at the cadence the tests use.
func binarySpec() Spec {
	return Spec{
		Name:   "binary-matrix",
		Algos:  []string{"leastel", "kingdom"},
		Graphs: []string{"ring:12", "random:16:40"},
		Modes:  []string{"congest", "async"},
		Delays: []string{"unit", "random:4"},
		Faults: []string{"none", "crash:0.2"},
		Trials: 2,
		Seed:   9,
	}
}

// runBinary executes spec with both the JSON and binary emitters and
// returns both byte streams plus the report.
func runBinary(t *testing.T, spec Spec, workers int, opt BinaryOptions) (jsonDoc, binDoc []byte, rep *Report) {
	t.Helper()
	var jb, bb bytes.Buffer
	rep, err := Run(spec, RunConfig{
		Workers:  workers,
		Emitters: []Emitter{NewJSONEmitter(&jb), NewBinaryEmitter(&bb, opt)},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return jb.Bytes(), bb.Bytes(), rep
}

func TestBinaryRoundTrip(t *testing.T) {
	spec := binarySpec()
	jsonDoc, binDoc, rep := runBinary(t, spec, 4, BinaryOptions{CheckpointEvery: 16})

	want, err := ParseDocument(jsonDoc)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	got, err := ParseBinary(binDoc)
	if err != nil {
		t.Fatalf("ParseBinary: %v", err)
	}
	if got.Schema != BinarySchemaVersion {
		t.Fatalf("schema = %q, want %q", got.Schema, BinarySchemaVersion)
	}
	if !reflect.DeepEqual(got.Spec, want.Spec) {
		t.Fatalf("spec mismatch:\n got %+v\nwant %+v", got.Spec, want.Spec)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("trial count %d != %d", len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		if !reflect.DeepEqual(got.Trials[i], want.Trials[i]) {
			t.Fatalf("trial %d mismatch:\n got %+v\nwant %+v", i, got.Trials[i], want.Trials[i])
		}
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("groups mismatch")
	}
	if got.TotalTrials != want.TotalTrials || got.Errors != want.Errors {
		t.Fatalf("totals: got %d/%d want %d/%d", got.TotalTrials, got.Errors, want.TotalTrials, want.Errors)
	}
	if rep.Total != got.TotalTrials {
		t.Fatalf("report total %d != document total %d", rep.Total, got.TotalTrials)
	}
}

func TestBinaryExportJSONByteIdentical(t *testing.T) {
	spec := binarySpec()
	jsonDoc, binDoc, _ := runBinary(t, spec, 4, BinaryOptions{CheckpointEvery: 16})
	var out bytes.Buffer
	if err := ExportJSON(bytes.NewReader(binDoc), &out); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	if !bytes.Equal(out.Bytes(), jsonDoc) {
		t.Fatalf("exported JSON differs from live JSON emitter (%d vs %d bytes)", out.Len(), len(jsonDoc))
	}
}

func TestBinaryDeterministicAcrossWorkers(t *testing.T) {
	spec := binarySpec()
	_, seq, _ := runBinary(t, spec, 1, BinaryOptions{CheckpointEvery: 16})
	_, par, _ := runBinary(t, spec, 8, BinaryOptions{CheckpointEvery: 16})
	if !bytes.Equal(seq, par) {
		t.Fatalf("binary output differs between 1 and 8 workers (%d vs %d bytes)", len(seq), len(par))
	}
}

// TestBinaryCompactness checks the marginal per-trial cost (the quantity
// that matters at 10^6 trials) rather than whole-file sizes, which are
// dominated by the spec echo and groups trailer on a small sweep: the
// same matrix at two rep counts isolates the per-trial bytes of each
// format.
func TestBinaryCompactness(t *testing.T) {
	small := binarySpec()
	big := small
	big.Trials = small.Trials * 4
	jsonSmall, binSmall, _ := runBinary(t, small, 4, BinaryOptions{})
	jsonBig, binBig, _ := runBinary(t, big, 4, BinaryOptions{})

	extra := big.NumTrials() - small.NumTrials()
	jsonPer := float64(len(jsonBig)-len(jsonSmall)) / float64(extra)
	binPer := float64(len(binBig)-len(binSmall)) / float64(extra)
	if binPer*4 >= jsonPer {
		t.Fatalf("binary trials cost %.1f B each vs %.1f JSON — want at least 4x smaller", binPer, jsonPer)
	}
	if binPer > 25 {
		t.Fatalf("binary trials cost %.1f B each, want ≤ 25 (ISSUE budget 10–20)", binPer)
	}
	t.Logf("per-trial marginal cost: binary %.1f B, JSON %.1f B (%.1fx)", binPer, jsonPer, jsonPer/binPer)
}

func TestDecodeBinaryTrialsStreams(t *testing.T) {
	spec := binarySpec()
	_, binDoc, _ := runBinary(t, spec, 4, BinaryOptions{CheckpointEvery: 16})
	doc, err := ParseBinary(binDoc)
	if err != nil {
		t.Fatal(err)
	}
	var got []TrialResult
	if err := DecodeBinaryTrials(bytes.NewReader(binDoc), func(tr TrialResult) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatalf("DecodeBinaryTrials: %v", err)
	}
	if !reflect.DeepEqual(got, doc.Trials) {
		t.Fatalf("streamed trials differ from ParseBinary")
	}

	sentinel := errors.New("stop here")
	n := 0
	err = DecodeBinaryTrials(bytes.NewReader(binDoc), func(TrialResult) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error = %v, want sentinel", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after sentinel, want 3", n)
	}
}

// TestBinaryKillAndResume is the headline resume test: a sweep killed at
// an arbitrary byte offset (torn tail included) must, after
// ResumeBinary + Run(Resume:...), produce a file byte-identical to the
// uninterrupted run, and a report with identical groups.
func TestBinaryKillAndResume(t *testing.T) {
	spec := binarySpec()
	opt := BinaryOptions{CheckpointEvery: 16}

	// Reference: uninterrupted run straight to a file.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.ulsb")
	refFile, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := Run(spec, RunConfig{Workers: 4, Emitters: []Emitter{NewBinaryEmitter(refFile, opt)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := refFile.Close(); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Locate the end of the header + initial checkpoint record so one kill
	// point exercises resume-from-zero: magic, uvarint spec length, spec,
	// uvarint total, uvarint cadence, 8-byte hash, then the 10-byte
	// checkpoint record (tag, uvarint 0, 8-byte hash).
	specLen, n := binary.Uvarint(refBytes[len(binMagic):])
	if n <= 0 {
		t.Fatal("could not decode header spec length")
	}
	off := len(binMagic) + n + int(specLen)
	_, n = binary.Uvarint(refBytes[off:])
	off += n
	_, n = binary.Uvarint(refBytes[off:])
	off += n + 8
	headerEnd := off + 10

	// Kill points: a few bytes into trial 0 (resume from zero), mid-file
	// (torn record almost surely), and one byte short of done.
	for _, cut := range []int{
		headerEnd + 3,
		len(refBytes) / 3,
		len(refBytes) * 71 / 100,
		len(refBytes) - 1,
	} {
		killed := filepath.Join(dir, "killed.ulsb")
		if err := os.WriteFile(killed, refBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ck, em, err := ResumeBinary(killed)
		if err != nil {
			t.Fatalf("cut=%d: ResumeBinary: %v", cut, err)
		}
		if ck.Done {
			t.Fatalf("cut=%d: checkpoint claims done", cut)
		}
		rep, err := Run(spec, RunConfig{Workers: 4, Resume: ck, Emitters: []Emitter{em}})
		if err != nil {
			t.Fatalf("cut=%d: resumed Run: %v", cut, err)
		}
		resumed, err := os.ReadFile(killed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, refBytes) {
			t.Fatalf("cut=%d (resumed from trial %d): resumed file differs from uninterrupted run (%d vs %d bytes)",
				cut, ck.Completed, len(resumed), len(refBytes))
		}
		if rep.Total != refRep.Total || rep.Errors != refRep.Errors {
			t.Fatalf("cut=%d: resumed report totals %d/%d, want %d/%d", cut, rep.Total, rep.Errors, refRep.Total, refRep.Errors)
		}
		if !reflect.DeepEqual(rep.Groups, refRep.Groups) {
			t.Fatalf("cut=%d: resumed report groups differ from uninterrupted run", cut)
		}
	}

	// A kill inside the header leaves nothing durable: ResumeBinary must
	// refuse rather than continue from a spec it cannot verify.
	torn := filepath.Join(dir, "torn.ulsb")
	if err := os.WriteFile(torn, refBytes[:headerEnd/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeBinary(torn); err == nil {
		t.Fatal("ResumeBinary on torn header succeeded, want error")
	}
}

func TestBinaryResumeOfCompleteFile(t *testing.T) {
	spec := binarySpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "done.ulsb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunConfig{Workers: 2, Emitters: []Emitter{NewBinaryEmitter(f, BinaryOptions{})}}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err := InspectBinary(path)
	if err != nil {
		t.Fatalf("InspectBinary: %v", err)
	}
	if !ck.Done || ck.Completed != spec.NumTrials() || ck.Total != spec.NumTrials() {
		t.Fatalf("inspect: done=%v completed=%d total=%d, want done with %d trials", ck.Done, ck.Completed, ck.Total, spec.NumTrials())
	}
	if _, _, err := ResumeBinary(path); !errors.Is(err, ErrSweepComplete) {
		t.Fatalf("ResumeBinary on complete file = %v, want ErrSweepComplete", err)
	}
}

func TestBinaryResumeSpecMismatch(t *testing.T) {
	spec := binarySpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ulsb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunConfig{Workers: 2, Emitters: []Emitter{NewBinaryEmitter(f, BinaryOptions{CheckpointEvery: 16})}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, em, err := ResumeBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = spec.Seed + 1
	if _, err := Run(other, RunConfig{Workers: 2, Resume: ck, Emitters: []Emitter{em}}); err == nil {
		t.Fatal("resume with a different spec succeeded, want error")
	}
}

func TestBinaryResumeUnresumableFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn-header.ulsb")
	// A file torn before the header checkpoint has no durable prefix.
	if err := os.WriteFile(path, []byte("ULSB1\n\x05"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeBinary(path); err == nil {
		t.Fatal("ResumeBinary on header-less file succeeded, want error")
	}
}

func TestParseBinaryRejectsCorruption(t *testing.T) {
	spec := binarySpec()
	_, binDoc, _ := runBinary(t, spec, 2, BinaryOptions{CheckpointEvery: 16})

	// Every strict decoder is the same scanner, so each bad document gets
	// the same verdict — the same error — from all three.
	for _, bad := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", binDoc[:len(binDoc)/3]},
		{"trailing garbage", append(append([]byte{}, binDoc...), 0xFF)},
		{"trailing data", append(append([]byte{}, binDoc...), binDoc[:40]...)},
	} {
		_, parseErr := ParseBinary(bad.data)
		streamErr := DecodeBinaryTrials(bytes.NewReader(bad.data), func(TrialResult) error { return nil })
		exportErr := ExportJSON(bytes.NewReader(bad.data), io.Discard)
		for _, err := range []error{parseErr, streamErr, exportErr} {
			if err == nil || err.Error() != parseErr.Error() {
				t.Fatalf("%s: ParseBinary = %v, DecodeBinaryTrials = %v, ExportJSON = %v; want one shared error",
					bad.name, parseErr, streamErr, exportErr)
			}
		}
	}
	// Flip one byte at a sweep of offsets; every mutation must produce an
	// error or a successfully-parsed document — never a panic. (Single-bit
	// damage in a varint payload can legitimately decode; integrity of the
	// header and checkpoints is what the hashes pin.)
	for off := 0; off < len(binDoc); off += 7 {
		mut := append([]byte{}, binDoc...)
		mut[off] ^= 0x20
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseBinary panicked on corruption at offset %d: %v", off, r)
				}
			}()
			_, _ = ParseBinary(mut)
		}()
	}
}

// pending returns the number of buffered records.
func (r *reorderRing) pending() int {
	n := 0
	for _, o := range r.occ {
		if o {
			n++
		}
	}
	return n
}

func TestReorderRing(t *testing.T) {
	var r reorderRing
	// Feed indices 0..999 in a scrambled order with a large spread to
	// force growth, and check in-order drain.
	const n = 1000
	order := make([]int, n)
	for i := range order {
		order[i] = (i*613 + 401) % n
	}
	next := 0
	for _, idx := range order {
		r.put(TrialResult{Trial: Trial{Index: idx}})
		for {
			tr, ok := r.take()
			if !ok {
				break
			}
			if tr.Index != next {
				t.Fatalf("drained index %d, want %d", tr.Index, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("drained %d records, want %d", next, n)
	}
	if r.pending() != 0 {
		t.Fatalf("%d records still pending", r.pending())
	}
}

func TestReorderRingResumeBase(t *testing.T) {
	r := reorderRing{base: 500}
	r.put(TrialResult{Trial: Trial{Index: 501}})
	if _, ok := r.take(); ok {
		t.Fatal("take succeeded before base index arrived")
	}
	r.put(TrialResult{Trial: Trial{Index: 500}})
	tr, ok := r.take()
	if !ok || tr.Index != 500 {
		t.Fatalf("take = %v/%v, want index 500", tr.Index, ok)
	}
	tr, ok = r.take()
	if !ok || tr.Index != 501 {
		t.Fatalf("take = %v/%v, want index 501", tr.Index, ok)
	}
}

// The cross-commit byte pins: sha256 of the synthetic sweep (fuzzSweepDoc,
// fuzzShardDocs — no simulation behind them, so only the codec can move
// them) as written and as exported, taken at the commit before the codec
// was rebuilt around one scanner and one text layout. Every other
// byte-identity test compares the codec to itself; these compare it to
// what it wrote before.
const (
	pinSweepBin       = "cbab55b69e92699592b4a45c3363046d98e99a2696f814550925cd2d23fcefbe" // 847 bytes
	pinSweepJSON      = "f17b47c032bfec31bcfe32be8ea792146c2f2171688929e1046da54b20a48bb2" // 2709 bytes
	pinShardSet       = "eb353067bb2380e0c8c0daef01ef420cfdf9a660b8523a18a33b92897acfef8c" // 1055 bytes, both shards concatenated
	pinShardMergeBin  = "019b6ee1fef8cdf705223fe82631bcaf1d162653533ef9bda3ba1d45d6d40158" // 2210 bytes
	pinShardMergeJSON = "e3c69858d38815425bf7fe95271a890801e2112236d0ed5ce89fe9f294143f6a" // 4072 bytes
)

func TestCrossCommitBytePins(t *testing.T) {
	pin := func(what string, data []byte, want string) {
		t.Helper()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s (%d bytes), pinned %s", what, got, len(data), want)
		}
	}
	export := func(bin []byte) []byte {
		t.Helper()
		var out bytes.Buffer
		if err := ExportJSON(bytes.NewReader(bin), &out); err != nil {
			t.Fatalf("ExportJSON: %v", err)
		}
		return out.Bytes()
	}
	doc := fuzzSweepDoc(t)
	pin("binary document", doc, pinSweepBin)
	pin("its JSON export", export(doc), pinSweepJSON)

	shards := fuzzShardDocs(t)
	pin("shard set", bytes.Join(shards, nil), pinShardSet)
	var paths []string
	for i, s := range shards {
		paths = append(paths, hostileFile(t, fmt.Sprintf("shard-%d.ulss", i), s))
	}
	mergedBin, mergedJSON, _ := mergeToBytes(t, fuzzSweepSpec(), paths, BinaryOptions{CheckpointEvery: 3})
	pin("merged binary document", mergedBin, pinShardMergeBin)
	pin("merged JSON document", mergedJSON, pinShardMergeJSON)
	if !bytes.Equal(export(mergedBin), mergedJSON) {
		t.Error("export of the merged binary differs from the merge's live JSON document")
	}
}
