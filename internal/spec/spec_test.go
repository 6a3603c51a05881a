package spec

import (
	"strings"
	"testing"

	"ustore/internal/faults"
)

const sampleYAML = `# durability-vs-cost sweep
name: durability-grid
mode: durability
seed: 7
failure:
  model: empirical
  ure_bits: observed
durability:
  scheme: r3
  disks: 512
  trials: 2
grid:
  durability.scheme: [r2, r3, ec8+3]
  failure.model: [constant, empirical]
`

func TestParseYAMLSpec(t *testing.T) {
	f, err := Parse([]byte(sampleYAML), "sample.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s := f.Spec
	if s.Name != "durability-grid" || s.Mode != "durability" || s.Seed != 7 {
		t.Fatalf("base fields wrong: %+v", s)
	}
	if s.Failure.Model != "empirical" || s.Failure.UREBits != faults.ObservedUREBits {
		t.Fatalf("failure section wrong: %+v", s.Failure)
	}
	if s.Durability.Disks != 512 || s.Durability.Trials != 2 {
		t.Fatalf("durability section wrong: %+v", s.Durability)
	}
	// Defaults fill what the document leaves out.
	if s.Durability.DiskTB != 4 || s.Days != 2 || !s.Faults.Disks {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if len(f.Axes) != 2 || f.Axes[0].Path != "durability.scheme" || f.Axes[1].Name != "model" {
		t.Fatalf("axes wrong: %+v", f.Axes)
	}
}

func TestGridExpansion(t *testing.T) {
	f, err := Parse([]byte(sampleYAML), "sample.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("want 3x2=6 cells, got %d", len(cells))
	}
	// Document axis order, last axis fastest.
	wantIDs := []string{
		"scheme=r2,model=constant", "scheme=r2,model=empirical",
		"scheme=r3,model=constant", "scheme=r3,model=empirical",
		"scheme=ec8+3,model=constant", "scheme=ec8+3,model=empirical",
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.ID != wantIDs[i] {
			t.Errorf("cell %d: ID %q, want %q", i, c.ID, wantIDs[i])
		}
		if seen[c.Hash] {
			t.Errorf("cell %d: duplicate hash %s", i, c.Hash)
		}
		seen[c.Hash] = true
		if c.Index != i {
			t.Errorf("cell %d: Index %d", i, c.Index)
		}
	}
	if cells[4].Spec.Durability.Scheme != "ec8+3" || cells[4].Spec.Failure.Model != "constant" {
		t.Fatalf("override not applied: %+v", cells[4].Spec)
	}
	// Non-gridded fields stay at the document's values in every cell.
	for _, c := range cells {
		if c.Spec.Durability.Disks != 512 || c.Spec.Seed != 7 {
			t.Fatalf("cell %s lost base values: %+v", c.ID, c.Spec)
		}
	}
}

func TestParseJSONSpec(t *testing.T) {
	doc := `{
  "mode": "fleet",
  "seed": 3,
  "fleet": {"units": 4, "shards": 2, "unit_loss": true},
  "grid": {"fleet.engine_workers": [1, 4]}
}`
	f, err := Parse([]byte(doc), "sample.json")
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Mode != "fleet" || f.Spec.Fleet.Units != 4 || !f.Spec.Fleet.UnitLoss {
		t.Fatalf("JSON decode wrong: %+v", f.Spec)
	}
	cells, err := f.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[1].Spec.Fleet.EngineWorkers != 4 {
		t.Fatalf("JSON grid wrong: %+v", cells)
	}
}

// TestPositionalErrors holds the whole reject path to "always position":
// each bad document must fail with file:line:col pointing at the problem.
func TestPositionalErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantPos, wantMsg string
	}{
		{"unknown top field", "mode: faults\nbogus: 1\n", "spec.yaml:2:1", "unknown field \"bogus\""},
		{"unknown nested field", "mode: faults\nfaults:\n  pears: 4\n", "spec.yaml:3:3", "unknown field \"pears\" in faults"},
		{"type mismatch int", "mode: faults\nseed: lots\n", "spec.yaml:2:7", "cannot parse \"lots\" as an integer"},
		{"type mismatch bool", "mode: faults\nfaults:\n  disks: 3\n", "spec.yaml:3:10", "expected true or false"},
		{"quoted bool rejected", "mode: faults\nfaults:\n  disks: \"true\"\n", "spec.yaml:3:10", "got the string"},
		{"scalar for section", "mode: faults\nfaults: on\n", "spec.yaml:2:9", "expected nested keys"},
		{"tab indent", "mode: faults\nfaults:\n\tdisks: true\n", "spec.yaml:3:1", "tab in indentation"},
		{"duplicate key", "mode: faults\nmode: traffic\n", "spec.yaml:2:1", "duplicate key"},
		{"missing mode", "seed: 4\n", "spec.yaml", "missing the required field \"mode\""},
		{"bad mode value", "mode: sideways\n", "spec.yaml", "unknown mode"},
		{"grid not a list", "mode: faults\ngrid:\n  seed: 4\n", "spec.yaml:3:9", "expected a list of values"},
		{"grid nested list", "mode: faults\ngrid:\n  seed: [[1]]\n", "spec.yaml:3:9", "nested flow lists"},
		{"bad ure_bits", "mode: faults\nfailure:\n  ure_bits: sometimes\n", "spec.yaml:3:13", "\"spec\", \"observed\", or \"off\""},
		{"unsupported anchor", "mode: faults\nname: &a x\n", "spec.yaml:2:7", "unsupported YAML syntax"},
		{"json trailing", `{"mode": "faults"} {`, "sample", "trailing data"},
		{"json unknown field", "{\n \"mode\": \"faults\",\n \"bogus\": 1\n}", "sample.json:3", "unknown field \"bogus\""},
		{"key the mode ignores", "mode: fleet\ndays: 3\n", "spec.yaml:2:1", "days is not read in mode fleet"},
		{"section the mode ignores", "mode: traffic\nfaults:\n  gray: true\n", "spec.yaml:3:3", "faults.gray is not read in mode traffic"},
		{"stream_quantiles is gone", "mode: traffic\ntraffic:\n  stream_quantiles: true\n", "spec.yaml:3:3", "unknown field \"stream_quantiles\" in traffic"},
		{"value error at its field", "mode: faults\ndays: 0\n", "spec.yaml:2:7", "days must be positive"},
		{"quarantine_blind needs mitigation", "mode: faults\nfaults:\n  quarantine_blind: true\n", "spec.yaml:3:21", "needs faults.mitigation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			name := "spec.yaml"
			if strings.HasPrefix(c.doc, "{") {
				name = "sample.json"
			}
			_, err := Parse([]byte(c.doc), name)
			if err == nil {
				t.Fatalf("doc accepted:\n%s", c.doc)
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("error %q does not mention %q", err, c.wantMsg)
			}
			if !strings.Contains(err.Error(), strings.Replace(c.wantPos, "sample", name, 1)) &&
				!strings.Contains(err.Error(), c.wantPos) {
				t.Errorf("error %q lacks position %q", err, c.wantPos)
			}
		})
	}
}

func TestSchemeParsing(t *testing.T) {
	cases := []struct {
		scheme   string
		width    int
		tolerate int
		overhead float64
		ok       bool
	}{
		{"r3", 3, 2, 3, true},
		{"r1", 1, 0, 1, true},
		{"ec8+3", 11, 3, 11.0 / 8, true},
		{"ec4+2", 6, 2, 1.5, true},
		{"r0", 0, 0, 0, false},
		{"r17", 0, 0, 0, false},
		{"ec8", 0, 0, 0, false},
		{"ec0+3", 0, 0, 0, false},
		{"raid6", 0, 0, 0, false},
		{"", 0, 0, 0, false},
	}
	for _, c := range cases {
		w, tol, err := ParseScheme(c.scheme)
		if c.ok != (err == nil) {
			t.Errorf("%q: ok=%v, err=%v", c.scheme, c.ok, err)
			continue
		}
		if !c.ok {
			continue
		}
		if w != c.width || tol != c.tolerate {
			t.Errorf("%q: got (%d,%d), want (%d,%d)", c.scheme, w, tol, c.width, c.tolerate)
		}
		if ov, _ := SchemeOverhead(c.scheme); ov != c.overhead {
			t.Errorf("%q: overhead %.3f, want %.3f", c.scheme, ov, c.overhead)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	for _, doc := range []string{
		"mode: faults\ndays: 0\n",
		"mode: faults\nfaults:\n  pairs: 0\n",
		"mode: durability\ndurability:\n  scheme: raid6\n",
		"mode: durability\ndurability:\n  trials: 0\n",
		"mode: fleet\nfleet:\n  units: 0\n",
		"mode: fleet\nfleet:\n  units: 8\n  shards: 2\n  crashes: -1\n",
		"mode: fleet\nfleet:\n  units: 8\n  shards: 1\n  slot_moves: 2\n",
		"mode: faults\nfailure:\n  model: empirical\n  age_years: 0\n",
		"mode: faults\nfailure:\n  model: psychic\n",
	} {
		if _, err := Parse([]byte(doc), "bad.yaml"); err == nil {
			t.Errorf("accepted invalid spec:\n%s", doc)
		}
	}
}

func TestCommentsAndQuoting(t *testing.T) {
	doc := "mode: faults # trailing comment\nname: \"a # not-a-comment\"\nseed: 9\n"
	f, err := Parse([]byte(doc), "c.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Name != "a # not-a-comment" || f.Spec.Seed != 9 {
		t.Fatalf("comment stripping broke values: %+v", f.Spec)
	}
}

// TestOverrides: overrides win over the document, are decoded like its
// values, and any error about one names the flag that set it.
func TestOverrides(t *testing.T) {
	doc := "mode: fleet\nseed: 4\nfleet:\n  units: 4\n"
	f, err := ParseWith([]byte(doc), "f.yaml", []Override{
		{Path: "fleet.units", Value: "16", Flag: "-units"},
		{Path: "fleet.fault_window_sec", Value: "90", Flag: "-fault-window"},
		{Path: "output.log", Value: "true", Flag: "-log"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := f.Spec
	if s.Seed != 4 || s.Fleet.Units != 16 || s.Fleet.FaultWindowSec != 90 || !s.Output.Log {
		t.Fatalf("overrides not applied: %+v", s)
	}
	for _, c := range []struct {
		name string
		ovs  []Override
		want string
	}{
		{"conflict", []Override{{"mode", "fleet", "-fleet"}, {"mode", "traffic", "-tenants"}},
			"flags -fleet and -tenants both set mode (fleet vs traffic)"},
		{"mode ignores the path", []Override{{"days", "3", "-days"}}, "flag -days: days is not read in mode fleet"},
		{"type mismatch", []Override{{"fleet.units", "many", "-units"}}, "flag -units: field fleet.units: cannot parse"},
		{"value error", []Override{{"fleet.shards", "0", "-shards"}}, "flag -shards: fleet.shards must be positive"},
		{"unknown path", []Override{{"fleet.bogus", "1", "-bogus"}}, "flag -bogus: unknown field \"bogus\" in fleet"},
	} {
		_, err := ParseWith([]byte(doc), "f.yaml", c.ovs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	// Equal values from two flags are not a conflict.
	if _, err := ParseWith([]byte(doc), "f.yaml", []Override{{"seed", "2", "-a"}, {"seed", "2", "-b"}}); err != nil {
		t.Errorf("equal overrides rejected: %v", err)
	}
}
