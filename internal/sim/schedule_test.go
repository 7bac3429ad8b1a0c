package sim

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestDelayTablePinned holds the built-in random:B and fifo:B schedules,
// B ∈ {1, 3, 4, 8}, to testdata/delays.txt value for value, both through
// Delay and through the per-link split the engine uses (linkMix once per
// link, delayFrom per message). The table was written by the four-round
// delay hash before that split existed; every line is one (schedule,
// seed, u, p) and the delays at the seq values of its header.
func TestDelayTablePinned(t *testing.T) {
	f, err := os.Open("testdata/delays.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seqs := []int{0, 1, 2, 5, 63, 1000, 1 << 20}
	schedules, values := map[string]bool{}, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var seed int64
		var u, p int
		if _, err := fmt.Sscanf(line, "%s %d %d %d:", &name, &seed, &u, &p); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		_, want, _ := strings.Cut(line, ": ")
		ds, err := ParseDelay(name)
		if err != nil {
			t.Fatal(err)
		}
		schedules[name] = true
		split := ds.(linkDelay)
		mix := linkMix(seed, u, p)
		for i, field := range strings.Fields(want) {
			w, err := strconv.Atoi(field)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			seq := seqs[i]
			if got := ds.Delay(seed, u, p, seq); got != w {
				t.Errorf("%s.Delay(%d, %d, %d, %d) = %d, pinned %d", name, seed, u, p, seq, got, w)
			}
			if got := split.delayFrom(mix, seq); got != w {
				t.Errorf("%s per-link delay (%d, %d, %d, %d) = %d, pinned %d", name, seed, u, p, seq, got, w)
			}
			values++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(schedules) != 8 || values != 8*6*6*4*len(seqs) {
		t.Fatalf("table has %d schedules and %d values", len(schedules), values)
	}
}
