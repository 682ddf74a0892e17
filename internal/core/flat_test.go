package core

import (
	"math/rand"
	"reflect"
	"testing"

	"distcover/internal/hypergraph"
)

// flatTestInstance draws one instance from the same mix of families the
// engine-equivalence test at the repository root uses (graphs, f>2,
// power-law, near-regular).
func flatTestInstance(t *testing.T, rng *rand.Rand, i int) *hypergraph.Hypergraph {
	t.Helper()
	seed := rng.Int63()
	var (
		g   *hypergraph.Hypergraph
		err error
	)
	switch i % 4 {
	case 0:
		n := 5 + rng.Intn(40)
		g, err = hypergraph.RandomGraph(n, 2*n, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
		})
	case 1:
		f := 3 + rng.Intn(3)
		n := f + 5 + rng.Intn(40)
		g, err = hypergraph.UniformRandom(n, 3*n, f, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 14,
		})
	case 2:
		g, err = hypergraph.PowerLaw(20+rng.Intn(60), 120, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 50,
		})
	default:
		g, err = hypergraph.RegularLike(30+rng.Intn(40), 4, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformOne,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameResult asserts bit-for-bit equality of everything a Result
// carries (duals compared exactly — the flat runner must apply the same
// float operations in the same order).
func requireFlatSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Cover, want.Cover) {
		t.Fatalf("%s: cover %v != %v", label, got.Cover, want.Cover)
	}
	if got.CoverWeight != want.CoverWeight {
		t.Fatalf("%s: weight %d != %d", label, got.CoverWeight, want.CoverWeight)
	}
	if !reflect.DeepEqual(got.Dual, want.Dual) {
		t.Fatalf("%s: duals differ", label)
	}
	if got.DualValue != want.DualValue {
		t.Fatalf("%s: dual value %v != %v", label, got.DualValue, want.DualValue)
	}
	if got.Iterations != want.Iterations || got.Rounds != want.Rounds {
		t.Fatalf("%s: iterations/rounds %d/%d != %d/%d",
			label, got.Iterations, got.Rounds, want.Iterations, want.Rounds)
	}
	if got.MaxLevel != want.MaxLevel || got.Z != want.Z || got.Alpha != want.Alpha {
		t.Fatalf("%s: level/z/alpha mismatch", label)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("%s: traces differ", label)
	}
	if !reflect.DeepEqual(got.EdgeRaises, want.EdgeRaises) {
		t.Fatalf("%s: edge raises differ", label)
	}
	if !reflect.DeepEqual(got.MaxStuckPerLevel, want.MaxStuckPerLevel) {
		t.Fatalf("%s: stuck counters differ", label)
	}
}

// TestFlatBitIdenticalToLockstep checks the flat runner against the
// sequential lockstep runner across option variants and worker counts,
// with tracing and invariant checks on.
func TestFlatBitIdenticalToLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(8421))
	variants := []struct {
		name string
		opts func() Options
	}{
		{"default", func() Options { return DefaultOptions() }},
		{"eps=0.25", func() Options { o := DefaultOptions(); o.Epsilon = 0.25; return o }},
		{"single-level", func() Options { o := DefaultOptions(); o.Variant = VariantSingleLevel; return o }},
		{"local-alpha", func() Options { o := DefaultOptions(); o.Alpha = AlphaLocal; return o }},
		{"fixed-alpha", func() Options { o := DefaultOptions(); o.Alpha = AlphaFixed; o.FixedAlpha = 3; return o }},
	}
	for i := 0; i < 24; i++ {
		g := flatTestInstance(t, rng, i)
		v := variants[i%len(variants)]
		opts := v.opts()
		opts.CollectTrace = true
		opts.CheckInvariants = true
		want, err := Run(g, opts, nil)
		if err != nil {
			t.Fatalf("instance %d (%s): sequential: %v", i, v.name, err)
		}
		for workers := 1; workers <= 8; workers++ {
			got, err := RunFlat(g, opts, nil, workers)
			if err != nil {
				t.Fatalf("instance %d (%s): flat/%d: %v", i, v.name, workers, err)
			}
			requireFlatSameResult(t, v.name, got, want)
		}
	}
}

// TestFlatResidualBitIdentical checks the warm-started path: random carried
// loads within each vertex's slack must produce the identical residual
// result on both runners.
func TestFlatResidualBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77553))
	for i := 0; i < 12; i++ {
		g := flatTestInstance(t, rng, i)
		carry := make([]float64, g.NumVertices())
		for v := range carry {
			carry[v] = rng.Float64() * 0.9 * float64(g.Weight(hypergraph.VertexID(v)))
		}
		opts := DefaultOptions()
		opts.CollectTrace = true
		opts.CheckInvariants = true
		want, err := Run(g, opts, carry)
		if err != nil {
			t.Fatalf("instance %d: sequential residual: %v", i, err)
		}
		for workers := 1; workers <= 8; workers++ {
			got, err := RunFlat(g, opts, carry, workers)
			if err != nil {
				t.Fatalf("instance %d: flat residual/%d: %v", i, workers, err)
			}
			requireFlatSameResult(t, "residual", got, want)
		}
	}
}

// TestFlatCoveredEdgesNeverRevisited asserts the frontier actually drops
// covered edges from the work list: the number of live edges entering each
// iteration's edge phase must equal the uncovered-edge count the previous
// iteration left behind (m for the first iteration). A covered edge
// reappearing in the live list would inflate exactly this count.
func TestFlatCoveredEdgesNeverRevisited(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for i := 0; i < 12; i++ {
		g := flatTestInstance(t, rng, i)
		opts := DefaultOptions()
		opts.CollectTrace = true
		var live []int
		flatEdgeVisits = func(liveEdges int) { live = append(live, liveEdges) }
		res, err := RunFlat(g, opts, nil, 1+i%4)
		flatEdgeVisits = nil
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != len(res.Trace) {
			t.Fatalf("instance %d: %d edge phases vs %d traced iterations", i, len(live), len(res.Trace))
		}
		want := g.NumEdges()
		for k, got := range live {
			if got != want {
				t.Fatalf("instance %d iteration %d: edge phase visits %d live edges, want %d uncovered",
					i, k, got, want)
			}
			want = res.Trace[k].ActiveEdges
		}
	}
}

// TestFlatExactFallsBackSequential: exact runs must produce the sequential
// exact result (the flat runner routes them there).
func TestFlatExactFallsBackSequential(t *testing.T) {
	g := hypergraph.MustNew(
		[]int64{7, 3, 9, 2, 8},
		[][]hypergraph.VertexID{{0, 1, 2}, {2, 3, 4}, {0, 4}, {1, 3}},
	)
	opts := DefaultOptions()
	opts.Exact = true
	want, err := Run(g, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFlat(g, opts, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireFlatSameResult(t, "exact", got, want)
}

// TestFlatEmptyAndIsolated covers the degenerate shapes: edgeless graphs
// and isolated vertices.
func TestFlatEmptyAndIsolated(t *testing.T) {
	g := hypergraph.MustNew([]int64{5, 1, 2}, [][]hypergraph.VertexID{{0, 1}})
	want, err := Run(g, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFlat(g, DefaultOptions(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireFlatSameResult(t, "isolated", got, want)

	empty := hypergraph.MustNew([]int64{4, 2}, nil)
	want, err = Run(empty, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunFlat(empty, DefaultOptions(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireFlatSameResult(t, "edgeless", got, want)
}
