package bench

import (
	"path/filepath"
	"testing"
)

func TestCompareTolerance(t *testing.T) {
	base := &Baseline{
		Tolerance: 0.2,
		Measurements: []Measurement{
			{Name: "q/w/ns", Value: 1000, Unit: "ns"},                         // lower is better
			{Name: "q/w/speedup", Value: 10, Unit: "x", HigherIsBetter: true}, // higher is better
			{Name: "q/w/rounds", Value: 21, Unit: "rounds"},                   // deterministic
			{Name: "full/w/ns", Value: 5e9, Unit: "ns"},                       // not re-measured
		},
	}
	cur := []Measurement{
		{Name: "q/w/ns", Value: 1150},   // +15% — within 20%
		{Name: "q/w/speedup", Value: 9}, // -10% — within
		{Name: "q/w/rounds", Value: 21}, // exact
	}
	results, skipped := Compare(base, cur, 0)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.Regressed {
			t.Errorf("%s unexpectedly regressed (delta %.3f)", r.Name, r.Delta)
		}
	}
	if len(skipped) != 1 || skipped[0] != "full/w/ns" {
		t.Errorf("skipped = %v, want [full/w/ns]", skipped)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Baseline{Measurements: []Measurement{
		{Name: "ns", Value: 1000},
		{Name: "speedup", Value: 10, HigherIsBetter: true},
		{Name: "rounds", Value: 21},
	}}
	cur := []Measurement{
		{Name: "ns", Value: 1500},   // +50% slower
		{Name: "speedup", Value: 5}, // halved
		{Name: "rounds", Value: 40}, // protocol got slower in rounds
	}
	results, _ := Compare(base, cur, 0.2)
	regs := Regressions(results)
	if len(regs) != 3 {
		t.Fatalf("regressions = %v, want 3 entries", regs)
	}
}

func TestComparePerMeasurementTolerance(t *testing.T) {
	base := &Baseline{Tolerance: 0.2, Measurements: []Measurement{
		{Name: "wallclock", Value: 1000, Tolerance: 0.75},
		{Name: "rounds", Value: 20},
	}}
	// +50%: beyond the file default but inside the entry's own band.
	results, _ := Compare(base, []Measurement{
		{Name: "wallclock", Value: 1500},
		{Name: "rounds", Value: 20},
	}, 0)
	if regs := Regressions(results); len(regs) != 0 {
		t.Fatalf("per-measurement tolerance ignored: %v", regs)
	}
	// +100%: beyond both.
	results, _ = Compare(base, []Measurement{{Name: "wallclock", Value: 2100}}, 0)
	if regs := Regressions(results); len(regs) != 1 {
		t.Fatalf("true regression missed: %v", regs)
	}
	// An explicit caller tolerance is the operator tightening the gate and
	// overrides the per-entry band: the same +50% now regresses.
	results, _ = Compare(base, []Measurement{{Name: "wallclock", Value: 1500}}, 0.2)
	if regs := Regressions(results); len(regs) != 1 {
		t.Fatalf("explicit tolerance did not override per-entry band: %v", regs)
	}
}

func TestCompareImprovementsPass(t *testing.T) {
	base := &Baseline{Measurements: []Measurement{
		{Name: "ns", Value: 1000},
		{Name: "speedup", Value: 5, HigherIsBetter: true},
	}}
	cur := []Measurement{
		{Name: "ns", Value: 10},      // 100x faster
		{Name: "speedup", Value: 50}, // way up
	}
	results, _ := Compare(base, cur, 0.2)
	if regs := Regressions(results); len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %v", regs)
	}
}

func TestBaselineRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	b := &Baseline{Tolerance: 0.2, Measurements: []Measurement{
		{Name: "full/x/ns", Value: 5e9, Unit: "ns"},
		{Name: "quick/x/ns", Value: 1e6, Unit: "ns"},
	}}
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tolerance != 0.2 || len(got.Measurements) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Merging a re-measured quick run must replace quick entries and keep
	// full entries.
	got.Merge([]Measurement{
		{Name: "quick/x/ns", Value: 2e6, Unit: "ns"},
		{Name: "quick/y/ns", Value: 3e6, Unit: "ns"},
	})
	if len(got.Measurements) != 3 {
		t.Fatalf("merge: %d measurements, want 3", len(got.Measurements))
	}
	for _, m := range got.Measurements {
		if m.Name == "quick/x/ns" && m.Value != 2e6 {
			t.Errorf("merge did not replace quick/x/ns: %v", m.Value)
		}
		if m.Name == "full/x/ns" && m.Value != 5e9 {
			t.Errorf("merge clobbered full/x/ns: %v", m.Value)
		}
	}
}

// TestMeasureEnginesQuick smoke-tests the throughput suite end to end at CI
// scale: the differential check inside MeasureEngines is what certifies the
// engines agree on real cover workloads.
func TestMeasureEnginesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput suite takes a few seconds")
	}
	ms, tables, err := MeasureEngines(Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatal("no table rows")
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	for _, want := range []string{
		"quick/regular-30k/sharded/ns",
		"quick/regular-30k/speedup-sharded-1-vs-sequential",
		"quick/regular-30k/sharded-1/ns",
		"quick/regular-30k/build/ns",
		"quick/powerlaw-10k/rounds",
	} {
		if !names[want] {
			t.Errorf("measurement %q missing (have %v)", want, names)
		}
	}
}
