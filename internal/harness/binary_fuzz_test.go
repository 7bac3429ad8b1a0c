package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ule/internal/core"
)

// fuzzSweepSpec is the sweep the synthetic documents below claim to be.
func fuzzSweepSpec() Spec {
	return Spec{
		Name:   "fuzz-seed",
		Algos:  []string{"leastel", "kingdom"},
		Graphs: []string{"ring:8"},
		Faults: []string{"none", "crash:0.3"},
		Trials: 2,
		Seed:   5,
	}
}

// fuzzSweepTrials fabricates the sweep's trial records — two cells, fault
// counts, an error record, an explicit seed — with no simulation behind
// them, so the bytes they encode to depend on the codec alone.
func fuzzSweepTrials(spec Spec) []TrialResult {
	seed := spec.withDefaults().Seed
	trials := make([]TrialResult, spec.NumTrials())
	for i := range trials {
		algo := spec.Algos[i%2]
		fault := spec.Faults[(i/2)%2]
		rep := i % spec.Trials
		tr := TrialResult{
			Trial: Trial{
				Index: i, Algo: algo, Graph: "ring:8", Mode: "congest",
				Wake: "sync", Fault: fault, Rep: rep, Seed: TrialSeed(seed, rep),
			},
			N: 8, M: 8,
			Outcome: core.Outcome{
				D: 4, Rounds: 10 + i, LastActive: 9 + i,
				Messages: int64(100 * (i + 1)), Bits: int64(4000 * (i + 1)),
				Leaders: 1, Unique: true, Halted: true,
			},
		}
		switch i {
		case 1:
			tr.Crashes, tr.Recoveries, tr.Dropped = 2, 1, 37
			tr.LiveUnique = true
		case 2:
			tr.Err = `boom "quoted" \slash`
			tr.Seed = 12345 // explicit, not the spec-derived seed
		case 3:
			tr.HitRoundCap = true
		}
		trials[i] = tr
	}
	return trials
}

// feedEmitter drives em through one whole stream: Begin, trials, End.
func feedEmitter(tb testing.TB, em Emitter, spec Spec, total int, trials []TrialResult, rep *Report) {
	tb.Helper()
	if err := em.Begin(spec, total); err != nil {
		tb.Fatalf("seed Begin: %v", err)
	}
	for _, tr := range trials {
		if err := em.Trial(tr); err != nil {
			tb.Fatalf("seed Trial: %v", err)
		}
	}
	if err := em.End(rep); err != nil {
		tb.Fatalf("seed End: %v", err)
	}
}

// fuzzSweepDoc builds one small but feature-complete binary document —
// the fuzzSweepTrials records across several checkpoints — synthesized
// straight through the emitter so every fuzz worker restart pays
// microseconds, not a sweep.
func fuzzSweepDoc(tb testing.TB) []byte {
	tb.Helper()
	spec := fuzzSweepSpec()
	trials := fuzzSweepTrials(spec)
	var buf bytes.Buffer
	feedEmitter(tb, NewBinaryEmitter(&buf, BinaryOptions{CheckpointEvery: 3}), spec, len(trials), trials,
		&Report{Total: len(trials), Errors: 1, Groups: []GroupStats{{
			Algo: "leastel", Graph: "ring:8", Mode: "congest", Wake: "sync",
			N: 8, M: 8, Trials: len(trials), Success: 1,
		}}})
	return buf.Bytes()
}

// fuzzShardDocs builds the same trials as a two-range shard set, [0,5)
// and [5,8), under the compiled form of the spec so that MergeShards
// accepts them.
func fuzzShardDocs(tb testing.TB) [][]byte {
	tb.Helper()
	spec := fuzzSweepSpec().withDefaults()
	trials := fuzzSweepTrials(spec)
	var docs [][]byte
	for _, r := range []TrialRange{{0, 5}, {5, len(trials) - 5}} {
		var buf bytes.Buffer
		feedEmitter(tb, NewShardEmitter(&buf, r.Start, r.Count, BinaryOptions{CheckpointEvery: 3}), spec, len(trials),
			trials[r.Start:r.Start+r.Count], nil)
		docs = append(docs, buf.Bytes())
	}
	return docs
}

// fuzzSeedVariants derives the seed corpus: a valid document plus the
// classic damage patterns (truncations at every region boundary, bit
// flips, trailing garbage, hostile lengths).
func fuzzSeedVariants(tb testing.TB) [][]byte {
	valid := fuzzSweepDoc(tb)
	variants := [][]byte{
		valid,
		fuzzShardDocs(tb)[0],
		{},
		[]byte("ULSB1\n"),
		[]byte("not a sweep at all"),
		valid[:len(binMagic)+2],
		valid[:len(valid)/4],
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		append(append([]byte{}, valid...), 0x00),
		append(append([]byte{}, valid...), valid[:40]...),
		// A header that claims a gigantic spec length.
		append(append([]byte{}, binMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	for _, off := range []int{7, len(valid) / 3, len(valid) * 2 / 3, len(valid) - 5} {
		mut := append([]byte{}, valid...)
		mut[off] ^= 0x55
		variants = append(variants, mut)
	}
	return variants
}

// FuzzParseBinary asserts the decoder's crash-safety contract: arbitrary
// bytes may be rejected with an error but must never panic, loop, or
// allocate unboundedly — a corrupt checkpoint file goes through this
// exact code path before a resume — and every decode path gives the same
// verdict on them, since all of them are the one scanner.
func FuzzParseBinary(f *testing.F) {
	for _, v := range fuzzSeedVariants(f) {
		f.Add(v)
	}
	path := filepath.Join(f.TempDir(), "input")
	f.Fuzz(func(t *testing.T, data []byte) {
		// The checkpoint scan reads the same bytes off a file, shard
		// documents included (every fleet worker's output comes back
		// through it); it may reject them but must not panic.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = InspectShard(path)
		_, _ = InspectBinary(path)

		var out bytes.Buffer
		exportErr := ExportJSON(bytes.NewReader(data), &out)
		n := 0
		streamErr := DecodeBinaryTrials(bytes.NewReader(data), func(TrialResult) error { n++; return nil })
		doc, err := ParseBinary(data)
		if err != nil {
			// Rejected input: the streaming paths must agree it is bad (no
			// silent partial success).
			if exportErr == nil || streamErr == nil {
				t.Fatalf("ParseBinary rejected (%v) but ExportJSON returned %v, DecodeBinaryTrials %v", err, exportErr, streamErr)
			}
			return
		}
		if doc == nil {
			t.Fatal("ParseBinary returned nil document with nil error")
		}
		if len(doc.Trials) != doc.TotalTrials {
			t.Fatalf("accepted document with %d trials but total %d", len(doc.Trials), doc.TotalTrials)
		}
		// A document the parser accepts must survive the export and
		// streaming paths too, and the export must be a document.
		if exportErr != nil || streamErr != nil {
			t.Fatalf("ParseBinary accepted but ExportJSON returned %v, DecodeBinaryTrials %v", exportErr, streamErr)
		}
		if n != len(doc.Trials) {
			t.Fatalf("streaming decoded %d trials, parse got %d", n, len(doc.Trials))
		}
		n = 0
		if err := DecodeTrials(&out, func(TrialResult) error { n++; return nil }); err != nil {
			t.Fatalf("exported JSON does not re-parse: %v", err)
		}
		if n != len(doc.Trials) {
			t.Fatalf("exported JSON holds %d trials, parse got %d", n, len(doc.Trials))
		}
	})
}

// TestRegenerateFuzzCorpus materializes the seed variants as checked-in
// corpus files so CI fuzzes them without needing a -fuzz run first. Run
// with ULE_REGEN_FUZZ_CORPUS=1 to refresh testdata/fuzz/FuzzParseBinary.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("ULE_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set ULE_REGEN_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParseBinary")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, v := range fuzzSeedVariants(t) {
		sum := sha256.Sum256(v)
		name := hex.EncodeToString(sum[:8])
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(v)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzCorpusCheckedIn guards against the corpus directory being
// deleted or left empty: the fuzz target's regression value in plain
// `go test` runs comes from these files.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzParseBinary"))
	if err != nil {
		t.Fatalf("checked-in fuzz corpus missing: %v", err)
	}
	if len(entries) < 10 {
		t.Fatalf("fuzz corpus has %d entries, want >= 10", len(entries))
	}
}
