package reduction

import (
	"testing"

	"distcover/internal/congest"
	"distcover/internal/core"
)

// TestReducedInstanceRunsOnCongest closes the loop of Section 5: the
// hypergraph produced by the reductions is an ordinary MWHVC instance, so
// the real message protocol must solve it and agree with the lockstep
// runner — i.e., the ILP pipeline could run fully distributed.
func TestReducedInstanceRunsOnCongest(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := randomILP(seed, 6, 5, 2, 4)
		ilpRed, err := ToZeroOne(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		zoRed, err := ToHypergraph(ilpRed.ZO, Options{PruneDominated: true})
		if err != nil {
			t.Fatal(err)
		}
		lockstep, err := core.Run(zoRed.G, core.DefaultOptions(), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		congRes, metrics, err := core.RunCongest(zoRed.G, core.DefaultOptions(), nil,
			congest.SequentialEngine{}, congest.Options{Validate: true})
		if err != nil {
			t.Fatalf("seed %d: congest on reduced instance: %v", seed, err)
		}
		if congRes.CoverWeight != lockstep.CoverWeight || congRes.Iterations != lockstep.Iterations {
			t.Errorf("seed %d: congest disagrees with lockstep on reduced instance", seed)
		}
		if metrics.MaxMessageBits > congest.LogBudget(zoRed.G.NumVertices()+zoRed.G.NumEdges()) {
			t.Errorf("seed %d: reduced-instance protocol exceeded the CONGEST budget", seed)
		}
		// The distributed cover maps back to a feasible ILP solution.
		x := ilpRed.AssignmentFromBits(zoRed.CoverToAssignment(congRes.Cover))
		if !p.IsFeasible(x) {
			t.Errorf("seed %d: congest-path solution infeasible", seed)
		}
	}
}
