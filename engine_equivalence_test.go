package distcover

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/lp"
	"distcover/internal/reduction"
)

// equivalenceEngines are the engines that must be bit-identical to the
// sequential reference, the TCP engine and its wire codec included.
func equivalenceEngines() map[string]congest.Engine {
	return map[string]congest.Engine{
		"sharded":   congest.ShardedEngine{},
		"sharded-5": congest.ShardedEngine{Shards: 5},
		"tcp":       congest.NetEngine{Codec: core.WireCodec{}},
	}
}

// randomEquivalenceInstance draws one instance from a mix of families:
// ordinary graphs, f>2 hypergraphs across weight distributions, heavy-tail
// power-law instances, and zero-one ILP-reduction outputs (whose edge
// structure — many overlapping hyperedges of mixed sizes — none of the
// random families produce).
func randomEquivalenceInstance(t *testing.T, rng *rand.Rand, i int) *hypergraph.Hypergraph {
	t.Helper()
	seed := rng.Int63()
	switch i % 5 {
	case 0: // plain graphs, f = 2
		n := 5 + rng.Intn(40)
		g, err := hypergraph.RandomGraph(n, 2*n, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case 1: // f > 2, exponential weights
		f := 3 + rng.Intn(3)
		n := f + 5 + rng.Intn(40)
		g, err := hypergraph.UniformRandom(n, 3*n, f, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case 2: // heavy-tail degree profile
		g, err := hypergraph.PowerLaw(20+rng.Intn(60), 120, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case 3: // near-regular, unit weights
		g, err := hypergraph.RegularLike(30+rng.Intn(40), 4, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformOne,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	default: // ILP-reduction instance (Lemma 14 hyperedges)
		nv := 4 + rng.Intn(5)
		p := &lp.CoveringILP{NumVars: nv}
		for v := 0; v < nv; v++ {
			p.Weights = append(p.Weights, 1+rng.Int63n(20))
		}
		for c := 0; c < 3+rng.Intn(4); c++ {
			row := lp.Row{B: 1 + rng.Int63n(3)}
			for v := 0; v < nv; v++ {
				if rng.Intn(2) == 0 {
					row.Terms = append(row.Terms, lp.Term{Col: v, Coef: 1 + rng.Int63n(3)})
				}
			}
			if len(row.Terms) == 0 {
				row.Terms = append(row.Terms, lp.Term{Col: rng.Intn(nv), Coef: row.B})
			}
			p.Rows = append(p.Rows, row)
		}
		red, err := reduction.ToHypergraph(p, reduction.Options{})
		if err != nil {
			// Random rows can be infeasible as zero-one programs; draw a
			// fallback family member instead.
			g, gerr := hypergraph.UniformRandom(12, 24, 3, hypergraph.GenConfig{
				Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 30,
			})
			if gerr != nil {
				t.Fatal(gerr)
			}
			return g
		}
		return red.G
	}
}

// TestEngineEquivalenceOnCoverProtocol is the cross-engine differential
// property test: on 50 random weighted instances (including f>2 and
// ILP-reduction shapes) the sequential, sharded and TCP engines must
// produce identical covers, identical metrics.Rounds, and identical
// message-bit accounting — and the flat chunk-parallel solver must match
// them bit for bit (covers, duals, iterations) at every worker count from
// 1 to 8 with invariant checking on, both cold and warm-started from a
// random carried load (the Session residual path).
func TestEngineEquivalenceOnCoverProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	opts := core.DefaultOptions()
	for i := 0; i < 50; i++ {
		g := randomEquivalenceInstance(t, rng, i)
		refRes, refMetrics, err := core.RunCongest(g, opts, nil, congest.SequentialEngine{}, congest.Options{Validate: true})
		if err != nil {
			t.Fatalf("instance %d: sequential: %v", i, err)
		}
		flatOpts := opts
		flatOpts.CheckInvariants = true
		carry := make([]float64, g.NumVertices())
		for v := range carry {
			carry[v] = rng.Float64() * 0.9 * float64(g.Weight(hypergraph.VertexID(v)))
		}
		refResidual, _, err := core.RunCongest(g, opts, carry, congest.SequentialEngine{}, congest.Options{Validate: true})
		if err != nil {
			t.Fatalf("instance %d: sequential residual: %v", i, err)
		}
		for workers := 1; workers <= 8; workers++ {
			flat, err := core.Run(g, flatOpts, nil, workers)
			if err != nil {
				t.Fatalf("instance %d: flat/%d: %v", i, workers, err)
			}
			if !reflect.DeepEqual(flat.Cover, refRes.Cover) ||
				!reflect.DeepEqual(flat.Dual, refRes.Dual) ||
				flat.Iterations != refRes.Iterations {
				t.Errorf("instance %d: flat/%d diverges from the protocol engines", i, workers)
			}
			warm, err := core.Run(g, flatOpts, carry, workers)
			if err != nil {
				t.Fatalf("instance %d: flat residual/%d: %v", i, workers, err)
			}
			if !reflect.DeepEqual(warm.Cover, refResidual.Cover) ||
				!reflect.DeepEqual(warm.Dual, refResidual.Dual) ||
				warm.Iterations != refResidual.Iterations {
				t.Errorf("instance %d: flat residual/%d diverges from sequential residual", i, workers)
			}
		}
		for name, eng := range equivalenceEngines() {
			res, metrics, err := core.RunCongest(g, opts, nil, eng, congest.Options{Validate: true})
			if err != nil {
				t.Fatalf("instance %d: %s: %v", i, name, err)
			}
			if !reflect.DeepEqual(res.Cover, refRes.Cover) {
				t.Errorf("instance %d: %s cover %v != sequential %v", i, name, res.Cover, refRes.Cover)
			}
			if res.CoverWeight != refRes.CoverWeight || res.DualValue != refRes.DualValue {
				t.Errorf("instance %d: %s certificate (%d, %g) != sequential (%d, %g)",
					i, name, res.CoverWeight, res.DualValue, refRes.CoverWeight, refRes.DualValue)
			}
			if metrics.Rounds != refMetrics.Rounds {
				t.Errorf("instance %d: %s rounds %d != sequential %d", i, name, metrics.Rounds, refMetrics.Rounds)
			}
			if metrics.TotalBits != refMetrics.TotalBits ||
				metrics.Messages != refMetrics.Messages ||
				metrics.MaxMessageBits != refMetrics.MaxMessageBits {
				t.Errorf("instance %d: %s bit accounting %+v != sequential %+v", i, name, metrics, refMetrics)
			}
		}
	}
}

// randomDelta draws a delta batch for an instance that currently has n
// vertices: occasionally new vertices, and a few random edges over the
// union of old and new ids. Returns the delta and the new vertex count.
func randomDelta(rng *rand.Rand, n int) (Delta, int) {
	var d Delta
	for i := 0; i < rng.Intn(3); i++ {
		d.Weights = append(d.Weights, 1+rng.Int63n(30))
	}
	total := n + len(d.Weights)
	for i := 0; i < 1+rng.Intn(5); i++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var e []int
		for len(e) < k {
			v := rng.Intn(total)
			if !seen[v] {
				seen[v] = true
				e = append(e, v)
			}
		}
		d.Edges = append(d.Edges, e)
	}
	return d, total
}

// TestSessionReplayAcrossEngines is the session-replay property test: for
// random instances and random delta sequences, the incremental
// Session.Update path must — on the simulator and on every in-memory
// CONGEST engine — keep producing a valid cover whose realized RatioBound
// stays within the f(1+ε) session certificate, and whose weight stays
// within that certificate of a from-scratch solve of the same instance
// (both dual values lower-bound the same OPT). The congest engines must
// additionally agree with the simulator session exactly, since residual
// solves run the identical warm-start arithmetic on every path.
func TestSessionReplayAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 12; i++ {
		g := randomEquivalenceInstance(t, rng, i)
		inst := &Instance{g: g}
		sessions := map[string]*Session{}
		for name, opts := range map[string][]Option{
			"sim":        {},
			"flat":       {WithSolverParallelism(3)},
			"sequential": {WithSequentialEngine()},
			"sharded":    {WithShardedEngine(), WithShardCount(3)},
		} {
			s, err := NewSession(inst, opts...)
			if err != nil {
				t.Fatalf("instance %d: %s: %v", i, name, err)
			}
			sessions[name] = s
		}
		cur := inst
		n := g.NumVertices()
		for batch := 0; batch < 5; batch++ {
			var d Delta
			d, n = randomDelta(rng, n)
			var err error
			cur, err = cur.Extend(d)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := Solve(cur)
			if err != nil {
				t.Fatalf("instance %d batch %d: scratch: %v", i, batch, err)
			}
			// The simulator session updates first: it is the reference the
			// engine sessions are compared against within the batch.
			ref := sessions["sim"]
			for _, name := range []string{"sim", "flat", "sequential", "sharded"} {
				s := sessions[name]
				if _, err := s.Update(d); err != nil {
					t.Fatalf("instance %d batch %d: %s: %v", i, batch, name, err)
				}
				sol := s.Solution()
				if !cur.IsCover(sol.Cover) {
					t.Fatalf("instance %d batch %d: %s produced an invalid cover", i, batch, name)
				}
				bound := s.CertifiedBound()
				if sol.RatioBound > bound*(1+1e-9) {
					t.Fatalf("instance %d batch %d: %s ratio %g exceeds certificate %g",
						i, batch, name, sol.RatioBound, bound)
				}
				if w := float64(sol.Weight); w > bound*scratch.DualLowerBound*(1+1e-9) {
					t.Fatalf("instance %d batch %d: %s weight %g vs scratch dual %g breaks certificate %g",
						i, batch, name, w, scratch.DualLowerBound, bound)
				}
				if s.Hash() != cur.Hash() {
					t.Fatalf("instance %d batch %d: %s hash drifted", i, batch, name)
				}
				if name != "sim" {
					refSol := ref.Solution()
					if !reflect.DeepEqual(sol.Cover, refSol.Cover) || sol.DualLowerBound != refSol.DualLowerBound {
						t.Fatalf("instance %d batch %d: %s session diverges from simulator session",
							i, batch, name)
					}
				}
			}
		}
	}
}

// TestSessionPooledArenaNoStateBleed is the regression test for the
// pooled solver scaffolding: arenas recycled through the sync.Pool across
// Session.Update calls must be fully reset, so a session's residual
// solves are bit-identical no matter which other solves dirtied and
// returned arenas in between. Pass 1 replays a delta sequence on a quiet
// process; pass 2 replays the identical sequence while concurrent flat
// solves of unrelated larger and smaller instances churn the pool between
// updates (under -race in CI this also exercises pool thread-safety).
// Any state bleeding through a recycled arena diverges the solutions.
func TestSessionPooledArenaNoStateBleed(t *testing.T) {
	rng := rand.New(rand.NewSource(991199))
	base := randomEquivalenceInstance(t, rng, 1)
	var deltas []Delta
	n := base.NumVertices()
	for b := 0; b < 6; b++ {
		var d Delta
		d, n = randomDelta(rng, n)
		deltas = append(deltas, d)
	}
	churn := []*Instance{
		{g: randomEquivalenceInstance(t, rng, 2)},
		{g: randomEquivalenceInstance(t, rng, 4)},
		{g: randomEquivalenceInstance(t, rng, 0)},
	}

	replay := func(dirtyPool bool) []*Solution {
		t.Helper()
		s, err := NewSession(&Instance{g: base}, WithSolverParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		var out []*Solution
		for _, d := range deltas {
			if dirtyPool {
				var wg sync.WaitGroup
				for w := 1; w <= 3; w++ {
					for _, ci := range churn {
						wg.Add(1)
						go func(ci *Instance, w int) {
							defer wg.Done()
							if _, err := Solve(ci, WithSolverParallelism(w)); err != nil {
								panic(err)
							}
						}(ci, w)
					}
				}
				wg.Wait()
			}
			if _, err := s.Update(d); err != nil {
				t.Fatal(err)
			}
			out = append(out, s.Solution())
		}
		return out
	}

	clean := replay(false)
	churned := replay(true)
	if !reflect.DeepEqual(clean, churned) {
		t.Fatalf("pooled arenas bleed state across updates:\nclean:   %+v\nchurned: %+v", clean, churned)
	}
}

// TestEngineEquivalencePublicAPI checks the same property through the
// public SolveCongest options, including the resolved Solution fields.
func TestEngineEquivalencePublicAPI(t *testing.T) {
	inst, err := NewInstance(
		[]int64{7, 3, 9, 2, 8, 5, 4, 6, 1, 10},
		[][]int{
			{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {8, 9, 0},
			{1, 4, 7}, {3, 6, 9}, {0, 5, 9}, {2, 5, 8}, {1, 3, 8},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats, err := SolveCongest(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range [][]Option{
		{WithEpsilon(0.5), WithShardedEngine()},
		{WithEpsilon(0.5), WithShardedEngine(), WithShardCount(4)},
	} {
		sol, stats, err := SolveCongest(inst, opt...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sol.Cover, ref.Cover) || sol.Weight != ref.Weight {
			t.Errorf("cover mismatch: %v (%d) vs %v (%d)", sol.Cover, sol.Weight, ref.Cover, ref.Weight)
		}
		if stats.Rounds != refStats.Rounds || stats.TotalBits != refStats.TotalBits {
			t.Errorf("stats mismatch: %+v vs %+v", stats, refStats)
		}
	}
	// The flat engine goes through Solve; the whole Solution must match the
	// simulator's bit for bit.
	simSol, err := Solve(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	flatSol, err := Solve(inst, WithEpsilon(0.5), WithSolverParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simSol, flatSol) {
		t.Errorf("flat Solve diverges from simulator:\n%+v\nvs\n%+v", flatSol, simSol)
	}
}
