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
)

// fuzzSweepDoc builds one small but feature-complete binary document —
// two cells, fault counts, an error record, explicit seed, several
// checkpoints — synthesized straight through the emitter so every fuzz
// worker restart pays microseconds, not a sweep.
func fuzzSweepDoc(tb testing.TB) []byte {
	tb.Helper()
	spec := Spec{
		Name:   "fuzz-seed",
		Algos:  []string{"leastel", "kingdom"},
		Graphs: []string{"ring:8"},
		Faults: []string{"none", "crash:0.3"},
		Trials: 2,
		Seed:   5,
	}
	total := spec.NumTrials()
	var buf bytes.Buffer
	em := NewBinaryEmitter(&buf, BinaryOptions{CheckpointEvery: 3})
	if err := em.Begin(spec, total); err != nil {
		tb.Fatalf("seed Begin: %v", err)
	}
	seed := spec.withDefaults().Seed
	for i := 0; i < total; i++ {
		algo := spec.Algos[i%2]
		fault := spec.Faults[(i/2)%2]
		rep := i % spec.Trials
		tr := TrialResult{
			Trial: Trial{
				Index: i, Algo: algo, Graph: "ring:8", Mode: "congest",
				Wake: "sync", Fault: fault, Rep: rep, Seed: TrialSeed(seed, rep),
			},
			N: 8, M: 8,
			Outcome: Outcome{
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
		if err := em.Trial(tr); err != nil {
			tb.Fatalf("seed Trial: %v", err)
		}
	}
	rep := &Report{Total: total, Errors: 1, Groups: []GroupStats{{
		Algo: "leastel", Graph: "ring:8", Mode: "congest", Wake: "sync",
		N: 8, M: 8, Trials: total, Success: 1,
	}}}
	if err := em.End(rep); err != nil {
		tb.Fatalf("seed End: %v", err)
	}
	return buf.Bytes()
}

// fuzzSeedVariants derives the seed corpus: a valid document plus the
// classic damage patterns (truncations at every region boundary, bit
// flips, trailing garbage, hostile lengths).
func fuzzSeedVariants(tb testing.TB) [][]byte {
	valid := fuzzSweepDoc(tb)
	variants := [][]byte{
		valid,
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
// exact code path before a resume.
func FuzzParseBinary(f *testing.F) {
	for _, v := range fuzzSeedVariants(f) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseBinary(data)
		if err == nil {
			if doc == nil {
				t.Fatal("ParseBinary returned nil document with nil error")
			}
			if len(doc.Trials) != doc.TotalTrials {
				t.Fatalf("accepted document with %d trials but total %d", len(doc.Trials), doc.TotalTrials)
			}
			// A document the parser accepts must survive the export and
			// streaming paths too.
			var out bytes.Buffer
			if err := ExportJSON(bytes.NewReader(data), &out); err != nil {
				t.Fatalf("ParseBinary accepted but ExportJSON rejected: %v", err)
			}
			n := 0
			if err := DecodeBinaryTrials(bytes.NewReader(data), func(TrialResult) error { n++; return nil }); err != nil {
				t.Fatalf("ParseBinary accepted but DecodeBinaryTrials rejected: %v", err)
			}
			if n != len(doc.Trials) {
				t.Fatalf("streaming decoded %d trials, parse got %d", n, len(doc.Trials))
			}
			return
		}
		// Rejected input: the streaming paths must agree it is bad (no
		// silent partial success) and likewise not panic.
		var out bytes.Buffer
		_ = ExportJSON(bytes.NewReader(data), &out)
		_ = DecodeBinaryTrials(bytes.NewReader(data), func(TrialResult) error { return nil })
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
