package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"distcover/internal/congest"
	"distcover/internal/hypergraph"
)

// residualFixture solves a base instance cold, then builds the residual
// subinstance for a batch of new edges over the same vertices: the new
// edges not stabbed by the base cover, compacted to fresh ids, with the
// base solve's per-vertex dual loads as carry.
type residualFixture struct {
	g     *hypergraph.Hypergraph // residual subinstance
	carry []float64
	orig  []hypergraph.VertexID // residual id -> base vertex id
}

func makeResidualFixture(t *testing.T, rng *rand.Rand, n int) (*Result, *residualFixture) {
	t.Helper()
	base, err := hypergraph.UniformRandom(n, 2*n, 3, hypergraph.GenConfig{
		Seed: rng.Int63(), Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(base, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, base.NumVertices())
	for e := 0; e < base.NumEdges(); e++ {
		for _, v := range base.Edge(hypergraph.EdgeID(e)) {
			load[v] += res.Dual[e]
		}
	}
	// New random edges; keep only the uncovered ones.
	var resEdges [][]hypergraph.VertexID
	remap := make(map[hypergraph.VertexID]hypergraph.VertexID)
	var orig []hypergraph.VertexID
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(2)
		seen := map[int]bool{}
		var edge []hypergraph.VertexID
		stabbed := false
		for len(edge) < k {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			edge = append(edge, hypergraph.VertexID(v))
			if res.InCover[v] {
				stabbed = true
			}
		}
		if stabbed {
			continue
		}
		local := make([]hypergraph.VertexID, len(edge))
		for j, v := range edge {
			lv, ok := remap[v]
			if !ok {
				lv = hypergraph.VertexID(len(orig))
				remap[v] = lv
				orig = append(orig, v)
			}
			local[j] = lv
		}
		resEdges = append(resEdges, local)
	}
	if len(resEdges) == 0 {
		return res, nil
	}
	b := hypergraph.NewBuilder(len(orig), len(resEdges))
	for _, v := range orig {
		b.AddVertex(base.Weight(v))
	}
	for _, e := range resEdges {
		b.AddEdge(e...)
	}
	carry := make([]float64, len(orig))
	for i, v := range orig {
		carry[i] = load[v]
	}
	return res, &residualFixture{g: b.MustBuild(), carry: carry, orig: orig}
}

// TestResidualLockstepCongestParity: the warm-started lockstep runner and
// the residual CONGEST protocol must agree exactly — covers, duals, levels
// and iteration counts — across all engines, the TCP engine's wire codec
// carrying the warm-start init messages included.
func TestResidualLockstepCongestParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	engines := map[string]congest.Engine{
		"sequential": congest.SequentialEngine{},
		"sharded":    congest.ShardedEngine{Shards: 3},
		"tcp":        congest.NetEngine{Codec: WireCodec{}},
	}
	fixtures := 0
	for i := 0; i < 30; i++ {
		_, fx := makeResidualFixture(t, rng, 12+rng.Intn(30))
		if fx == nil {
			continue
		}
		fixtures++
		ref, err := Run(fx.g, DefaultOptions(), fx.carry)
		if err != nil {
			t.Fatalf("fixture %d: lockstep: %v", i, err)
		}
		for name, eng := range engines {
			res, _, err := RunCongest(fx.g, DefaultOptions(), fx.carry, eng, congest.Options{Validate: true})
			if err != nil {
				t.Fatalf("fixture %d: %s: %v", i, name, err)
			}
			if !reflect.DeepEqual(res.Cover, ref.Cover) {
				t.Errorf("fixture %d: %s cover %v != lockstep %v", i, name, res.Cover, ref.Cover)
			}
			if !reflect.DeepEqual(res.Dual, ref.Dual) {
				t.Errorf("fixture %d: %s duals diverge from lockstep", i, name)
			}
			if res.Iterations != ref.Iterations || res.MaxLevel != ref.MaxLevel {
				t.Errorf("fixture %d: %s iters/level (%d,%d) != lockstep (%d,%d)",
					i, name, res.Iterations, res.MaxLevel, ref.Iterations, ref.MaxLevel)
			}
		}
	}
	if fixtures < 10 {
		t.Fatalf("only %d usable fixtures; fixture generator too strict", fixtures)
	}
}

// TestResidualDualFeasibility: after a warm-started solve, the combined
// load carry[v] + Σ_{residual e ∋ v} δ(e) must stay within w(v) — the
// Claim 1 invariant the f(1+ε) session certificate rests on — and every
// residual edge must end up covered.
func TestResidualDualFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		_, fx := makeResidualFixture(t, rng, 15+rng.Intn(25))
		if fx == nil {
			continue
		}
		res, err := Run(fx.g, DefaultOptions(), fx.carry)
		if err != nil {
			t.Fatal(err)
		}
		if !fx.g.IsCover(res.Cover) {
			t.Fatalf("fixture %d: residual cover %v does not cover residual instance", i, res.Cover)
		}
		total := append([]float64(nil), fx.carry...)
		for e := 0; e < fx.g.NumEdges(); e++ {
			for _, v := range fx.g.Edge(hypergraph.EdgeID(e)) {
				total[v] += res.Dual[e]
			}
		}
		for v, load := range total {
			w := float64(fx.g.Weight(hypergraph.VertexID(v)))
			if load > w*(1+1e-9) {
				t.Fatalf("fixture %d: vertex %d load %g exceeds weight %g", i, v, load, w)
			}
		}
	}
}

func TestResidualCarryValidation(t *testing.T) {
	g := hypergraph.MustNew([]int64{5, 5}, [][]hypergraph.VertexID{{0, 1}})
	cases := [][]float64{
		{1},       // wrong length
		{-0.5, 0}, // negative
		{5, 0},    // == weight
		{6, 0},    // > weight
	}
	for i, carry := range cases {
		if _, err := Run(g, DefaultOptions(), carry); !errors.Is(err, ErrBadCarry) {
			t.Errorf("case %d: got %v, want ErrBadCarry", i, err)
		}
	}
	if _, err := Run(g, DefaultOptions(), []float64{0, 0}); err != nil {
		t.Errorf("zero carry should run: %v", err)
	}
	// Zero carry behaves exactly like a cold run (levels all 0 reduce the
	// warm bid rule to the paper's).
	cold, err := Run(g, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(g, DefaultOptions(), []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Cover, warm.Cover) || cold.DualValue != warm.DualValue {
		t.Errorf("zero-carry warm start diverges: %v/%g vs %v/%g",
			warm.Cover, warm.DualValue, cold.Cover, cold.DualValue)
	}
}
