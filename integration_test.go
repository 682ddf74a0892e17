package distcover

import (
	"bytes"
	"math/rand"
	"testing"
)

// End-to-end integration tests exercising the whole stack through the
// public API only: generation → serialization → solving on every execution
// path → certificates → cross-path agreement.

// randomSetCover builds a feasible random set cover scenario.
func randomSetCover(t *testing.T, seed int64, elements, candidates, spread int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]int, candidates)
	costs := make([]int64, candidates)
	for s := range sets {
		k := 1 + rng.Intn(spread)
		seen := map[int]bool{}
		for len(sets[s]) < k {
			x := rng.Intn(elements)
			if !seen[x] {
				seen[x] = true
				sets[s] = append(sets[s], x)
			}
		}
		costs[s] = 1 + rng.Int63n(50)
	}
	// Guarantee feasibility: one backstop set covering each element.
	for x := 0; x < elements; x++ {
		sets = append(sets, []int{x})
		costs = append(costs, 100)
	}
	inst, err := NewSetCoverInstance(elements, sets, costs)
	if err != nil {
		t.Fatalf("NewSetCoverInstance: %v", err)
	}
	return inst
}

func TestIntegrationAllPathsAgree(t *testing.T) {
	inst := randomSetCover(t, 1, 40, 60, 4)

	// Serialize and reload; the reloaded instance must solve identically.
	var buf bytes.Buffer
	if _, err := inst.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}

	base, err := Solve(inst, WithEpsilon(0.5), WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Solve(reloaded, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if base.Weight != again.Weight || base.Iterations != again.Iterations {
		t.Error("serialization round trip changed the solve")
	}

	congest, _, err := SolveCongest(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := SolveCongest(inst, WithEpsilon(0.5), WithShardedEngine())
	if err != nil {
		t.Fatal(err)
	}
	tcp, _, err := SolveCongest(inst, WithEpsilon(0.5), WithTCPEngine())
	if err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*Solution{
		"congest": congest, "sharded": sharded, "tcp": tcp,
	} {
		if sol.Weight != base.Weight || sol.Iterations != base.Iterations {
			t.Errorf("%s path disagrees: weight %d vs %d", name, sol.Weight, base.Weight)
		}
		if !inst.IsCover(sol.Cover) {
			t.Errorf("%s path returned non-cover", name)
		}
	}

	exact, err := Solve(inst, WithEpsilon(0.5), WithExactArithmetic(), WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Weight != base.Weight {
		t.Errorf("exact arithmetic changed the cover weight: %d vs %d", exact.Weight, base.Weight)
	}
}

func TestIntegrationCertificatesBind(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		inst := randomSetCover(t, seed, 30, 45, 5)
		f := inst.Stats().Rank
		for _, eps := range []float64{1, 0.25} {
			sol, err := Solve(inst, WithEpsilon(eps))
			if err != nil {
				t.Fatal(err)
			}
			if !inst.IsCover(sol.Cover) {
				t.Fatal("not a cover")
			}
			if sol.RatioBound > float64(f)+eps+1e-9 {
				t.Errorf("seed %d ε=%g: certified ratio %f > f+ε = %f",
					seed, eps, sol.RatioBound, float64(f)+eps)
			}
			if float64(sol.Weight) > sol.RatioBound*sol.DualLowerBound*(1+1e-9) {
				t.Error("certificate arithmetic inconsistent")
			}
		}
	}
}

func TestIntegrationILPThroughPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		nVars := 4 + rng.Intn(4)
		weights := make([]int64, nVars)
		for j := range weights {
			weights[j] = 1 + rng.Int63n(9)
		}
		p := NewILP(weights)
		for i := 0; i < 3+rng.Intn(3); i++ {
			k := 1 + rng.Intn(2)
			vars := rng.Perm(nVars)[:k]
			coefs := make([]int64, k)
			for c := range coefs {
				coefs[c] = 1 + rng.Int63n(3)
			}
			if err := p.AddConstraint(vars, coefs, 1+rng.Int63n(5)); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := SolveILP(p, WithEpsilon(0.5))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !p.IsFeasible(sol.X) {
			t.Fatalf("trial %d: infeasible X", trial)
		}
		if float64(sol.Value) < sol.DualLowerBound-1e-9 {
			t.Errorf("trial %d: value %d below its own lower bound %f",
				trial, sol.Value, sol.DualLowerBound)
		}
	}
}

func TestIntegrationTraceConsistency(t *testing.T) {
	inst := randomSetCover(t, 7, 50, 80, 4)
	sol, err := Solve(inst, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	coveredTotal := 0
	for _, it := range sol.Trace {
		coveredTotal += it.CoveredEdges
	}
	if coveredTotal != st.Edges {
		t.Errorf("trace covered %d edges, instance has %d", coveredTotal, st.Edges)
	}
}
