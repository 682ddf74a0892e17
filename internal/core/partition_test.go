package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"distcover/internal/hypergraph"
)

// chanExchanger synchronizes in-process partitions through a shared barrier;
// it is the reference Exchanger implementation the TCP path (internal/
// cluster) must behave like.
type chanExchanger struct {
	group *chanGroup
	part  int
}

type chanGroup struct {
	parts int
	mu    sync.Mutex
	cond  *sync.Cond

	phase    int // generation counter: 2 per iteration
	arrived  int
	frames   []BoundaryFrame
	coverage []int
	fail     error // injected failure, returned to every partition
}

func newChanGroup(parts int) *chanGroup {
	g := &chanGroup{
		parts:    parts,
		frames:   make([]BoundaryFrame, parts),
		coverage: make([]int, parts),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *chanGroup) exchanger(part int) *chanExchanger { return &chanExchanger{group: g, part: part} }

// barrier publishes this partition's contribution and blocks until all
// partitions of the generation arrived.
func (g *chanGroup) barrier(publish func()) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fail != nil {
		return g.fail
	}
	publish()
	g.arrived++
	gen := g.phase
	if g.arrived == g.parts {
		g.arrived = 0
		g.phase++
		g.cond.Broadcast()
	} else {
		for g.phase == gen && g.fail == nil {
			g.cond.Wait()
		}
	}
	if g.fail != nil {
		return g.fail
	}
	return nil
}

func (e *chanExchanger) ExchangeBoundary(_ int, local BoundaryFrame) ([]BoundaryFrame, error) {
	g := e.group
	err := g.barrier(func() {
		states := append([]BoundaryState(nil), local.States...)
		g.frames[e.part] = BoundaryFrame{Part: local.Part, States: states}
	})
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]BoundaryFrame(nil), g.frames...), nil
}

func (e *chanExchanger) ExchangeCoverage(_ int, covered int) (int, error) {
	g := e.group
	if err := g.barrier(func() { g.coverage[e.part] = covered }); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0
	for _, c := range g.coverage {
		total += c
	}
	return total, nil
}

// runPartitioned executes all partitions as goroutines over a chanGroup and
// assembles the merged result.
func runPartitioned(t *testing.T, g *hypergraph.Hypergraph, opts Options, carry []float64, parts int) (*Result, error) {
	t.Helper()
	bounds := PlanPartitions(g, parts)
	np := len(bounds) - 1
	group := newChanGroup(np)
	partials := make([]*PartialResult, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			partials[p], errs[p] = RunPartition(g, opts, carry, bounds, p, group.exchanger(p))
			if errs[p] != nil {
				group.mu.Lock()
				if group.fail == nil {
					group.fail = errs[p]
					group.cond.Broadcast()
				}
				group.mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return AssembleParts(g, opts, partials)
}

// randomPartitionInstance mixes the families the engine equivalence tests
// sweep: graphs, f>2 hypergraphs, heavy tails and near-regular instances.
func randomPartitionInstance(t *testing.T, rng *rand.Rand, i int) *hypergraph.Hypergraph {
	t.Helper()
	seed := rng.Int63()
	switch i % 4 {
	case 0:
		n := 5 + rng.Intn(40)
		g, err := hypergraph.RandomGraph(n, 2*n, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case 1:
		f := 3 + rng.Intn(3)
		n := f + 5 + rng.Intn(40)
		g, err := hypergraph.UniformRandom(n, 3*n, f, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case 2:
		g, err := hypergraph.PowerLaw(20+rng.Intn(60), 120, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	default:
		g, err := hypergraph.RegularLike(30+rng.Intn(40), 4, 3, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformOne,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// requirePartitionResult asserts bit-identity of the fields the partitioned
// path reconstructs.
func requirePartitionResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Cover, want.Cover) {
		t.Fatalf("%s: cover %v != %v", label, got.Cover, want.Cover)
	}
	if !reflect.DeepEqual(got.InCover, want.InCover) {
		t.Fatalf("%s: InCover diverges", label)
	}
	if !reflect.DeepEqual(got.Dual, want.Dual) {
		t.Fatalf("%s: duals diverge", label)
	}
	if got.CoverWeight != want.CoverWeight || got.DualValue != want.DualValue ||
		got.RatioBound != want.RatioBound || got.Iterations != want.Iterations ||
		got.Rounds != want.Rounds || got.MaxLevel != want.MaxLevel ||
		got.Z != want.Z || got.Alpha != want.Alpha || got.Epsilon != want.Epsilon {
		t.Fatalf("%s: scalar fields diverge:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestPartitionRunnerMatchesFlat is the in-process half of the cluster
// equivalence property: for random instances, partition counts 1..4 and
// varying ε, the partitioned runner must reconstruct Run's result bit
// for bit — cold starts and carry-warm residual starts alike.
func TestPartitionRunnerMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(20260731))
	epss := []float64{1, 0.5, 0.25}
	for i := 0; i < 24; i++ {
		g := randomPartitionInstance(t, rng, i)
		opts := DefaultOptions()
		opts.Epsilon = epss[i%len(epss)]
		if i%5 == 4 {
			opts.Alpha = AlphaLocal
		}
		want, err := Run(g, opts, nil, 2)
		if err != nil {
			t.Fatalf("instance %d: flat: %v", i, err)
		}
		for parts := 1; parts <= 4; parts++ {
			got, err := runPartitioned(t, g, opts, nil, parts)
			if err != nil {
				t.Fatalf("instance %d parts %d: %v", i, parts, err)
			}
			requirePartitionResult(t, fmt.Sprintf("instance %d parts %d", i, parts), got, want)
		}
	}
}

// TestPartitionRunnerMatchesResidualFlat covers the warm-started path that
// cluster sessions use for every delta batch.
func TestPartitionRunnerMatchesResidualFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(77007))
	for i := 0; i < 12; i++ {
		g := randomPartitionInstance(t, rng, i)
		carry := make([]float64, g.NumVertices())
		for v := range carry {
			// Anywhere in [0, w): the level derivation must agree across
			// partitions for any load.
			carry[v] = rng.Float64() * 0.97 * float64(g.Weight(hypergraph.VertexID(v)))
		}
		opts := DefaultOptions()
		want, err := Run(g, opts, carry, 3)
		if err != nil {
			t.Fatalf("instance %d: residual flat: %v", i, err)
		}
		for parts := 2; parts <= 4; parts += 2 {
			got, err := runPartitioned(t, g, opts, carry, parts)
			if err != nil {
				t.Fatalf("instance %d parts %d: %v", i, parts, err)
			}
			requirePartitionResult(t, fmt.Sprintf("instance %d parts %d (carry)", i, parts), got, want)
		}
	}
}

// TestPartitionRunnerRejects covers the typed configuration errors.
func TestPartitionRunnerRejects(t *testing.T) {
	g, err := hypergraph.UniformRandom(12, 24, 3, hypergraph.GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Exact = true
	if _, err := RunPartition(g, opts, nil, []int{0, 12}, 0, nil); !errors.Is(err, ErrPartitionOptions) {
		t.Fatalf("exact: err = %v, want ErrPartitionOptions", err)
	}
	opts = DefaultOptions()
	if _, err := RunPartition(g, opts, nil, []int{0, 5}, 0, nil); !errors.Is(err, ErrPartitionOptions) {
		t.Fatalf("short bounds: err = %v, want ErrPartitionOptions", err)
	}
	if _, err := RunPartition(g, opts, nil, []int{0, 12}, 3, nil); !errors.Is(err, ErrPartitionOptions) {
		t.Fatalf("bad part: err = %v, want ErrPartitionOptions", err)
	}
	if _, err := AssembleParts(g, opts, nil); !errors.Is(err, ErrPartitionOptions) {
		t.Fatalf("empty assemble: err = %v, want ErrPartitionOptions", err)
	}
	// A nil share — first position included — is the typed error, not a
	// panic.
	if _, err := AssembleParts(g, opts, []*PartialResult{nil, {Part: 1}}); !errors.Is(err, ErrPartitionOptions) {
		t.Fatalf("nil first partial: err = %v, want ErrPartitionOptions", err)
	}
}

// TestAssemblePartsRejectsBadShares: the coordinator merges shares that
// peers send over the wire, so a negative cover vertex, a vertex two shares
// both claim, or cover weights that do not add up to the merged cover's
// weight are typed errors — never a panic or a silently deduplicated cover.
func TestAssemblePartsRejectsBadShares(t *testing.T) {
	g, err := hypergraph.UniformRandom(40, 80, 3, hypergraph.GenConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	bounds := PlanPartitions(g, 2)
	grp := NewMemExchangerGroup(2)
	partials := make([]*PartialResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			partials[p], errs[p] = RunPartition(g, opts, nil, bounds, p, grp.Exchanger(p))
			if errs[p] != nil {
				grp.Fail(errs[p])
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
	if _, err := AssembleParts(g, opts, partials); err != nil {
		t.Fatal(err)
	}
	if len(partials[0].Cover) == 0 {
		t.Fatal("fixture: partition 0 has an empty cover")
	}
	v0 := partials[0].Cover[0]
	tests := []struct {
		name string
		edit func(p []*PartialResult)
	}{
		{"negative cover vertex", func(p []*PartialResult) { p[0].Cover = append(p[0].Cover, -1) }},
		{"vertex claimed twice", func(p []*PartialResult) {
			p[1].Cover = append(p[1].Cover, v0)
			p[1].CoverWeight += g.Weight(v0)
		}},
		{"misreported cover weight", func(p []*PartialResult) { p[0].CoverWeight++ }},
	}
	for _, tt := range tests {
		shares := make([]*PartialResult, len(partials))
		for i, p := range partials {
			cp := *p
			cp.Cover = append([]hypergraph.VertexID(nil), p.Cover...)
			shares[i] = &cp
		}
		tt.edit(shares)
		if _, err := AssembleParts(g, opts, shares); !errors.Is(err, ErrPartitionOptions) {
			t.Errorf("%s: err = %v, want ErrPartitionOptions", tt.name, err)
		}
	}
}

// tamperExchanger hands its partition the frames of a real exchange after
// passing a copy of the frame list through edit.
type tamperExchanger struct {
	Exchanger
	edit func([]BoundaryFrame) []BoundaryFrame
}

func (x tamperExchanger) ExchangeBoundary(iteration int, local BoundaryFrame) ([]BoundaryFrame, error) {
	frames, err := x.Exchanger.ExchangeBoundary(iteration, local)
	if err != nil {
		return nil, err
	}
	return x.edit(append([]BoundaryFrame(nil), frames...)), nil
}

// TestPartitionRejectsForeignBoundaryStates: a partition accepts boundary
// frames only as the plan's partitions in ascending order, each reporting
// vertices of its sender's range. Anything else — a state for one of the
// receiver's own vertices, an unknown or misordered partition, a missing
// or extra frame — fails the iteration with ErrPartitionOptions instead
// of silently corrupting the run.
func TestPartitionRejectsForeignBoundaryStates(t *testing.T) {
	g, err := hypergraph.UniformRandom(40, 80, 3, hypergraph.GenConfig{
		Seed: 3, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	bounds := PlanPartitions(g, 2)
	want, err := Run(g, opts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	own := BoundaryState{V: 0, Level: 1, Joined: true} // partition 0's vertex
	withState := func(fr BoundaryFrame, bs BoundaryState) BoundaryFrame {
		return BoundaryFrame{Part: fr.Part, States: append(append([]BoundaryState(nil), fr.States...), bs)}
	}
	tests := []struct {
		name string
		edit func([]BoundaryFrame) []BoundaryFrame
		ok   bool
	}{
		{"untouched", func(f []BoundaryFrame) []BoundaryFrame { return f }, true},
		{"extra frame for own vertex", func(f []BoundaryFrame) []BoundaryFrame {
			return append(f, BoundaryFrame{Part: 1, States: []BoundaryState{own}})
		}, false},
		{"own vertex in peer frame", func(f []BoundaryFrame) []BoundaryFrame {
			f[1] = withState(f[1], own)
			return f
		}, false},
		{"vertex beyond the instance", func(f []BoundaryFrame) []BoundaryFrame {
			f[1] = withState(f[1], BoundaryState{V: int32(g.NumVertices())})
			return f
		}, false},
		{"unknown partition", func(f []BoundaryFrame) []BoundaryFrame {
			f[1].Part = 7
			return f
		}, false},
		{"descending order", func(f []BoundaryFrame) []BoundaryFrame {
			f[0], f[1] = f[1], f[0]
			return f
		}, false},
		{"missing frame", func(f []BoundaryFrame) []BoundaryFrame { return f[:1] }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			grp := NewMemExchangerGroup(2)
			partials := make([]*PartialResult, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for p := 0; p < 2; p++ {
				ex := grp.Exchanger(p)
				if p == 0 {
					ex = tamperExchanger{Exchanger: ex, edit: tt.edit}
				}
				wg.Add(1)
				go func(p int, ex Exchanger) {
					defer wg.Done()
					partials[p], errs[p] = RunPartition(g, opts, nil, bounds, p, ex)
					grp.Fail(errs[p])
				}(p, ex)
			}
			wg.Wait()
			if !tt.ok {
				if !errors.Is(errs[0], ErrPartitionOptions) {
					t.Fatalf("err = %v, want ErrPartitionOptions", errs[0])
				}
				return
			}
			for p, err := range errs {
				if err != nil {
					t.Fatalf("partition %d: %v", p, err)
				}
			}
			got, err := AssembleParts(g, opts, partials)
			if err != nil {
				t.Fatal(err)
			}
			requirePartitionResult(t, tt.name, got, want)
		})
	}
}

// TestPlanPartitionsShape checks the plan invariants the protocol relies on.
func TestPlanPartitionsShape(t *testing.T) {
	g, err := hypergraph.PowerLaw(200, 600, 3, hypergraph.GenConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 7, 500} {
		b := PlanPartitions(g, parts)
		if b[0] != 0 || b[len(b)-1] != g.NumVertices() {
			t.Fatalf("parts=%d: bounds %v do not span the vertex range", parts, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("parts=%d: bounds %v not monotone", parts, b)
			}
		}
		if want := maxInt(1, minInt(parts, g.NumVertices())); len(b)-1 != want {
			t.Fatalf("parts=%d: got %d partitions, want %d", parts, len(b)-1, want)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
