package distcover

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestCompareRunsAllAlgorithms(t *testing.T) {
	inst, err := NewInstance(
		[]int64{5, 3, 8, 2, 9, 4, 7, 6},
		[][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {1, 4}, {6, 7}, {2, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Compare(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	f := float64(inst.Stats().Rank)
	for _, row := range rows {
		if row.Weight <= 0 {
			t.Errorf("%s: weight %d", row.Algorithm, row.Weight)
		}
		if row.Distributed && row.Rounds <= 0 {
			t.Errorf("%s: distributed but rounds = %d", row.Algorithm, row.Rounds)
		}
		if !row.Distributed && row.Rounds != 0 {
			t.Errorf("%s: sequential but rounds = %d", row.Algorithm, row.Rounds)
		}
		// Primal-dual certificates must respect their guarantees;
		// greedy's ratio is only an estimate against the greedy dual.
		if !strings.HasPrefix(row.Algorithm, "greedy") && row.CertifiedRatio > f+1+1e-9 {
			t.Errorf("%s: certified ratio %f exceeds f+1 = %f",
				row.Algorithm, row.CertifiedRatio, f+1)
		}
	}
	if !strings.Contains(rows[0].Algorithm, "this work") {
		t.Errorf("first row should be this work, got %s", rows[0].Algorithm)
	}
}

func TestCompareNil(t *testing.T) {
	if _, err := Compare(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("Compare(nil) = %v", err)
	}
}

func TestWithTrace(t *testing.T) {
	inst := triangleInstance(t)
	sol, err := Solve(inst, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trace) != sol.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(sol.Trace), sol.Iterations)
	}
	totalJoined := 0
	for i, it := range sol.Trace {
		if it.Iteration != i+1 {
			t.Errorf("trace[%d].Iteration = %d", i, it.Iteration)
		}
		totalJoined += it.Joined
	}
	if totalJoined != len(sol.Cover) {
		t.Errorf("trace joins %d != cover size %d", totalJoined, len(sol.Cover))
	}
	// Last iteration must leave no active edges.
	if last := sol.Trace[len(sol.Trace)-1]; last.ActiveEdges != 0 {
		t.Errorf("final active edges = %d", last.ActiveEdges)
	}
}

func TestWithInvariantChecks(t *testing.T) {
	inst := triangleInstance(t)
	if _, err := Solve(inst, WithInvariantChecks()); err != nil {
		t.Errorf("invariant-checked solve failed: %v", err)
	}
	if _, err := Solve(inst, WithInvariantChecks(), WithExactArithmetic()); err != nil {
		t.Errorf("exact invariant-checked solve failed: %v", err)
	}
	// In-process partitions check their own ranges; the option must not
	// change the result.
	want, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(inst, WithInvariantChecks(), WithClusterPartitions(2))
	if err != nil {
		t.Fatalf("invariant-checked partitioned solve failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("invariant-checked partitioned solve diverges:\n got %+v\nwant %+v", got, want)
	}
}
