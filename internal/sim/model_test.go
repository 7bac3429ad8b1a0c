package sim

import "testing"

func TestParseModel(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical String round-trip ("" = parse error)
	}{
		{"", "congest"},
		{"congest", "congest"},
		{"local", "local"},
		{"async", "async"},
		{"none", "congest"},
		{"async+unit", "async"},
		{"async+random:4", "async+random:4"},
		{"async+fifo:8", "async+fifo:8"},
		{"random:4+async", "async+random:4"}, // term order is free
		{"crash:0.2", "congest+crash:0.2"},
		{"crash:0.2+local", "local+crash:0.2"},
		{"drop:0.1+async+random:4", "async+random:4+drop:0.1"},
		{"async+fifo:8+crashrec:0.1:32+drop:0.05", "async+fifo:8+crashrec:0.1:32+drop:0.05"},
		{"churn:0.3:8+none", "congest+churn:0.3:8"},
		{"random:4", ""},          // delay needs async
		{"local+fifo:2", ""},      // delay needs async
		{"congest+local", ""},     // two modes
		{"async+unit+fifo:2", ""}, // two delays
		{"async+random:x", ""},
		{"crash:2", ""},
		{"bogus", ""},
	}
	for _, c := range cases {
		m, err := ParseModel(c.spec)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseModel(%q): want error, got %q", c.spec, m.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseModel(%q): %v", c.spec, err)
			continue
		}
		if got := m.String(); got != c.want {
			t.Errorf("ParseModel(%q).String() = %q, want %q", c.spec, got, c.want)
		}
		// The canonical form re-parses to the same model.
		m2, err := ParseModel(m.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", m.String(), err)
		} else if m2.String() != m.String() {
			t.Errorf("round-trip of %q changed the model to %q", m.String(), m2.String())
		}
	}
}

// TestParseModeAndModelAgree: a sweep's mode axis (ParseMode) and a model
// string (ParseModel) accept the same mode spellings and read the same Mode
// from each.
func TestParseModeAndModelAgree(t *testing.T) {
	for _, s := range []string{"", "congest", "local", "async", "CONGEST", "Local", "ASYNC", "aSyNc", "asynch", "warp"} {
		mode, modeErr := ParseMode(s)
		m, modelErr := ParseModel(s)
		if (modeErr == nil) != (modelErr == nil) {
			t.Errorf("%q: ParseMode error %v, ParseModel error %v", s, modeErr, modelErr)
		} else if modeErr == nil && m.Mode != mode {
			t.Errorf("%q: ParseMode reads %v, ParseModel %v", s, mode, m.Mode)
		}
	}
}

func TestModelSpecZero(t *testing.T) {
	var m ModelSpec
	if m.String() != "congest" {
		t.Errorf("zero ModelSpec String = %q, want congest", m.String())
	}
}
