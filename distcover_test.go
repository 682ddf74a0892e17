package distcover

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func triangleInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance([]int64{1, 2, 3}, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestSolveTriangle(t *testing.T) {
	inst := triangleInstance(t)
	sol, err := Solve(inst)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !inst.IsCover(sol.Cover) {
		t.Fatal("solution is not a cover")
	}
	if sol.Weight != inst.CoverWeight(sol.Cover) {
		t.Errorf("Weight = %d, recomputed %d", sol.Weight, inst.CoverWeight(sol.Cover))
	}
	if sol.RatioBound > 3+1e-9 { // f+ε = 2+1
		t.Errorf("RatioBound = %f exceeds f+ε = 3", sol.RatioBound)
	}
	if sol.DualLowerBound <= 0 {
		t.Errorf("DualLowerBound = %f", sol.DualLowerBound)
	}
}

func TestSolveOptionsCombinations(t *testing.T) {
	inst := triangleInstance(t)
	tests := []struct {
		name string
		opts []Option
	}{
		{"epsilon", []Option{WithEpsilon(0.25)}},
		{"f-approx", []Option{WithFApproximation()}},
		{"single level", []Option{WithSingleLevelVariant()}},
		{"local alpha", []Option{WithLocalAlpha()}},
		{"fixed alpha", []Option{WithFixedAlpha(8)}},
		{"exact", []Option{WithExactArithmetic()}},
		{"stacked", []Option{WithEpsilon(0.5), WithSingleLevelVariant(), WithLocalAlpha()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol, err := Solve(inst, tt.opts...)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !inst.IsCover(sol.Cover) {
				t.Error("not a cover")
			}
		})
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("Solve(nil) = %v, want ErrNilInstance", err)
	}
	inst := triangleInstance(t)
	if _, err := Solve(inst, WithEpsilon(7)); err == nil {
		t.Error("Solve with ε=7 succeeded")
	}
	if _, err := Solve(inst, WithMaxIterations(1)); err == nil {
		t.Error("Solve with 1-iteration cap succeeded")
	}
}

func TestNewInstanceErrors(t *testing.T) {
	if _, err := NewInstance([]int64{1}, [][]int{{}}); err == nil {
		t.Error("empty edge accepted")
	}
	if _, err := NewInstance([]int64{0}, nil); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewInstance([]int64{1}, [][]int{{0, 5}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestSolveCongest(t *testing.T) {
	inst := triangleInstance(t)
	for _, parallel := range []bool{false, true} {
		opts := []Option{WithEpsilon(0.5)}
		if parallel {
			opts = append(opts, WithParallelEngine())
		}
		sol, stats, err := SolveCongest(inst, opts...)
		if err != nil {
			t.Fatalf("SolveCongest(parallel=%v): %v", parallel, err)
		}
		if !inst.IsCover(sol.Cover) {
			t.Error("not a cover")
		}
		if stats.Rounds <= 0 || stats.Messages <= 0 || stats.MaxMessageBits <= 0 {
			t.Errorf("stats not recorded: %+v", stats)
		}
	}
	// The deprecated WithParallelEngine must keep selecting the sharded
	// engine.
	if c := optConfig([]Option{WithParallelEngine()}); c.engine != engineSharded || !c.congest {
		t.Errorf("WithParallelEngine selects engine %d (congest=%v), want the sharded engine", c.engine, c.congest)
	}
	if _, _, err := SolveCongest(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("SolveCongest(nil) = %v", err)
	}
	if _, _, err := SolveCongest(inst, WithExactArithmetic()); err == nil {
		t.Error("exact arithmetic on congest path accepted")
	}
}

func TestSolveCongestTCP(t *testing.T) {
	inst := triangleInstance(t)
	sol, stats, err := SolveCongest(inst, WithTCPEngine())
	if err != nil {
		t.Fatalf("SolveCongest(TCP): %v", err)
	}
	if !inst.IsCover(sol.Cover) {
		t.Error("not a cover")
	}
	if stats.WireBytes == 0 {
		t.Error("WireBytes not recorded on TCP engine")
	}
	mem, _, err := SolveCongest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Weight != sol.Weight || mem.Iterations != sol.Iterations {
		t.Errorf("TCP engine disagrees with in-memory engine: (%d,%d) vs (%d,%d)",
			sol.Weight, sol.Iterations, mem.Weight, mem.Iterations)
	}
}

func TestSolveAndSolveCongestAgree(t *testing.T) {
	inst, err := NewInstance(
		[]int64{5, 3, 8, 2, 9, 4},
		[][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {1, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SolveCongest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight != b.Weight || a.Iterations != b.Iterations {
		t.Errorf("paths disagree: lockstep (w=%d it=%d) vs congest (w=%d it=%d)",
			a.Weight, a.Iterations, b.Weight, b.Iterations)
	}
}

func TestSetCoverInstance(t *testing.T) {
	// Elements 0..3; three candidate sets.
	inst, err := NewSetCoverInstance(4,
		[][]int{{0, 1}, {1, 2, 3}, {0, 3}},
		[]int64{5, 6, 4},
	)
	if err != nil {
		t.Fatalf("NewSetCoverInstance: %v", err)
	}
	sol, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(sol.Cover) {
		t.Fatal("chosen sets do not cover all elements")
	}
	st := inst.Stats()
	if st.Rank != 2 { // every element appears in exactly 2 sets
		t.Errorf("Rank = %d, want 2", st.Rank)
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	inst := triangleInstance(t)
	var buf bytes.Buffer
	if _, err := inst.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != inst.Stats() {
		t.Errorf("round trip changed stats: %+v vs %+v", back.Stats(), inst.Stats())
	}
	if _, err := ReadInstance(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStats(t *testing.T) {
	inst := triangleInstance(t)
	st := inst.Stats()
	want := Stats{Vertices: 3, Edges: 3, Rank: 2, MaxDegree: 2, WeightSpread: 3}
	if st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}

func TestSolveILP(t *testing.T) {
	p := NewILP([]int64{2, 3, 1})
	if err := p.AddConstraint([]int{0, 1}, []int64{2, 1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{1, 2}, []int64{1, 3}, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveILP(p)
	if err != nil {
		t.Fatalf("SolveILP: %v", err)
	}
	if !p.IsFeasible(sol.X) {
		t.Fatalf("infeasible X = %v", sol.X)
	}
	if sol.Value != p.Value(sol.X) {
		t.Errorf("Value = %d, recomputed %d", sol.Value, p.Value(sol.X))
	}
	if sol.Stats.M != 4 {
		t.Errorf("M = %d, want 4", sol.Stats.M)
	}
	if sol.SimulationFactor < 1 {
		t.Errorf("SimulationFactor = %f", sol.SimulationFactor)
	}
}

func TestSolveILPErrors(t *testing.T) {
	if _, err := SolveILP(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("SolveILP(nil) = %v", err)
	}
	p := NewILP([]int64{1})
	if err := p.AddConstraint([]int{0}, []int64{1, 2}, 1); err == nil {
		t.Error("mismatched constraint accepted")
	}
	bad := NewILP([]int64{0})
	if _, err := SolveILP(bad); err == nil {
		t.Error("invalid ILP accepted")
	}
}

// TestSolveILPTelemetry: SolveILP honours WithTelemetry like Solve does —
// the reduced instance solves on the simulator, so the report names that
// engine and carries one row per iteration plus the init row 0.
func TestSolveILPTelemetry(t *testing.T) {
	p := NewILP([]int64{2, 3, 1})
	if err := p.AddConstraint([]int{0, 1}, []int64{2, 1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{1, 2}, []int64{1, 3}, 3); err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder("")
	sol, err := SolveILP(p, WithTelemetry(rec))
	if err != nil {
		t.Fatalf("SolveILP: %v", err)
	}
	rep := rec.Report()
	if rep.Engine != "sim" {
		t.Errorf("report engine %q, want sim", rep.Engine)
	}
	if len(rep.Iterations) != sol.Iterations+1 {
		t.Errorf("report has %d iteration rows, want %d", len(rep.Iterations), sol.Iterations+1)
	}
}

// TestInstanceHashGolden pins Instance.Hash, the key of the result cache,
// the coordinator ring, the peer instance cache and the WAL's instance
// identity: a change to the canonical encoding must show up here.
func TestInstanceHashGolden(t *testing.T) {
	const (
		fixedHash    = "37f74eeba0d375d986bebdd5854909d1e113739a0a53e73bec064ab9939f4471"
		setCoverHash = "0ba9d63e3ba68aa8a41e3aad439d679bacc1a4922e6688fee6798fcfdbdbf96e"
		extendedHash = "d159055a468afd949b5c4e63f37a7c3c93c3b840fb525507768980f6f7dc8f60"
	)
	weights := []int64{3, 1, 4, 1, 5}
	edges := [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {0, 4}}
	delta := Delta{Weights: []int64{2}, Edges: [][]int{{5, 2}, {1, 5}, {0, 2, 5}}}
	cases := []struct {
		name string
		hash func() (string, error)
		want string
	}{
		{"fixed", func() (string, error) {
			in, err := NewInstance(weights, edges)
			if err != nil {
				return "", err
			}
			return in.Hash(), nil
		}, fixedHash},
		{"reordered, permuted, duplicated vertex", func() (string, error) {
			in, err := NewInstance(weights, [][]int{{4, 0}, {4, 3, 4}, {3, 1, 2}, {1, 0}})
			if err != nil {
				return "", err
			}
			return in.Hash(), nil
		}, fixedHash},
		{"set cover", func() (string, error) {
			in, err := NewSetCoverInstance(4, [][]int{{0, 1}, {1, 2, 3}, {0, 3}}, []int64{2, 3, 1})
			if err != nil {
				return "", err
			}
			return in.Hash(), nil
		}, setCoverHash},
		{"read with other whitespace and key order", func() (string, error) {
			in, err := ReadInstance(strings.NewReader(
				"{ \"edges\" : [[1,0], [3, 2,1],\n\t[4,3],[4 ,0]],\n \"weights\":[3,1, 4,1,5] }"))
			if err != nil {
				return "", err
			}
			return in.Hash(), nil
		}, fixedHash},
		{"extended from scratch", func() (string, error) {
			in, err := NewInstance(append(append([]int64(nil), weights...), delta.Weights...),
				append(append([][]int(nil), edges...), delta.Edges...))
			if err != nil {
				return "", err
			}
			return in.Hash(), nil
		}, extendedHash},
		{"session after one update", func() (string, error) {
			in, err := NewInstance(weights, edges)
			if err != nil {
				return "", err
			}
			s, err := NewSession(in)
			if err != nil {
				return "", err
			}
			if _, err := s.Update(delta); err != nil {
				return "", err
			}
			return s.Hash(), nil
		}, extendedHash},
	}
	for _, tc := range cases {
		got, err := tc.hash()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
