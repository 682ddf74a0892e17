package hypergraph

import (
	"fmt"
	"math/rand"
)

// WeightDist selects how generator vertex weights are drawn.
type WeightDist int

// Weight distributions.
const (
	// WeightUniformOne gives every vertex weight 1 (unweighted instance).
	WeightUniformOne WeightDist = iota + 1
	// WeightUniformRange draws weights uniformly from [1, MaxWeight].
	WeightUniformRange
	// WeightExponential draws weights as 2^U with U uniform in
	// [0, log2 MaxWeight], producing a heavy weight spread.
	WeightExponential
)

// GenConfig parameterizes the random-instance generators. The zero value is
// not valid; use the generator helpers or fill every relevant field.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// MaxWeight bounds vertex weights for weighted distributions (≥ 1).
	MaxWeight int64
	// Dist selects the weight distribution (default WeightUniformOne).
	Dist WeightDist
}

func (c GenConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c GenConfig) drawWeight(rng *rand.Rand) int64 {
	maxW := c.MaxWeight
	if maxW < 1 {
		maxW = 1
	}
	switch c.Dist {
	case WeightUniformRange:
		return 1 + rng.Int63n(maxW)
	case WeightExponential:
		w := int64(1)
		for w*2 <= maxW && rng.Intn(2) == 0 {
			w *= 2
		}
		return w
	default:
		return 1
	}
}

// UniformRandom generates a hypergraph with n vertices and m edges where
// every edge is a uniformly random f-subset of the vertices. Requires
// 1 ≤ f ≤ n and m ≥ 0.
func UniformRandom(n, m, f int, cfg GenConfig) (*Hypergraph, error) {
	if n <= 0 || f <= 0 || f > n || m < 0 {
		return nil, fmt.Errorf("hypergraph: invalid UniformRandom params n=%d m=%d f=%d", n, m, f)
	}
	rng := cfg.rng()
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(cfg.drawWeight(rng))
	}
	pick := make([]VertexID, 0, f)
	seen := make(map[VertexID]bool, f)
	for e := 0; e < m; e++ {
		pick = pick[:0]
		for k := range seen {
			delete(seen, k)
		}
		for len(pick) < f {
			v := VertexID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				pick = append(pick, v)
			}
		}
		b.AddEdge(pick...)
	}
	return b.Build()
}

// RegularLike generates a hypergraph with n vertices where every edge has
// exactly f vertices and every vertex has degree close to d: it creates
// m = n*d/f edges by sampling from a pool in which each vertex appears d
// times, yielding max degree ≤ d + O(1) deviations only from deduplication.
func RegularLike(n, d, f int, cfg GenConfig) (*Hypergraph, error) {
	if n <= 0 || d <= 0 || f <= 0 || f > n {
		return nil, fmt.Errorf("hypergraph: invalid RegularLike params n=%d d=%d f=%d", n, d, f)
	}
	rng := cfg.rng()
	b := NewBuilder(n, n*d/f)
	for i := 0; i < n; i++ {
		b.AddVertex(cfg.drawWeight(rng))
	}
	// Pool of vertex slots: each vertex d times. A pass scans the shuffled
	// pool and greedily packs consecutive distinct vertices into edges of
	// size f; slots colliding with the edge under construction are carried
	// into the next pass. Each vertex contributes d slots, so every vertex
	// ends with degree ≤ d. The number of passes is small in practice
	// (collisions only arise among repeated vertices), and each pass is a
	// single O(|pool|) sweep, so generation is near-linear in n·d.
	pool := make([]VertexID, 0, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			pool = append(pool, VertexID(v))
		}
	}
	edge := make([]VertexID, 0, f)
	used := make(map[VertexID]bool, f)
	for len(pool) >= f {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		carry := pool[:0]
		edge = edge[:0]
		emitted := 0
		for _, v := range pool {
			if used[v] {
				carry = append(carry, v)
				continue
			}
			used[v] = true
			edge = append(edge, v)
			if len(edge) == f {
				b.AddEdge(edge...)
				emitted++
				edge = edge[:0]
				for k := range used {
					delete(used, k)
				}
			}
		}
		// Slots of the incomplete trailing edge return to the pool.
		carry = append(carry, edge...)
		edge = edge[:0]
		for k := range used {
			delete(used, k)
		}
		if emitted == 0 {
			break // only duplicates of < f distinct vertices remain
		}
		pool = carry
	}
	return b.Build()
}

// RandomGraph generates an ordinary graph (f = 2) with n vertices where each
// of the m edges joins two distinct uniformly random vertices.
func RandomGraph(n, m int, cfg GenConfig) (*Hypergraph, error) {
	return UniformRandom(n, m, 2, cfg)
}

// Star generates a star: one center vertex contained in every one of the
// delta edges, each edge also containing f-1 private leaf vertices. The
// center has weight centerWeight and leaves weight 1. Stars maximize Δ and
// are the canonical hard instance for degree-dependent round bounds.
func Star(delta, f int, centerWeight int64) (*Hypergraph, error) {
	if delta <= 0 || f < 1 || centerWeight <= 0 {
		return nil, fmt.Errorf("hypergraph: invalid Star params delta=%d f=%d w=%d", delta, f, centerWeight)
	}
	b := NewBuilder(1+delta*(f-1), delta)
	center := b.AddVertex(centerWeight)
	for e := 0; e < delta; e++ {
		edge := make([]VertexID, 0, f)
		edge = append(edge, center)
		for j := 0; j < f-1; j++ {
			edge = append(edge, b.AddVertex(1))
		}
		b.AddEdge(edge...)
	}
	return b.Build()
}

// Path generates a path v0-v1-...-v_{n-1} (f = 2) with the given weights
// (len(weights) = n ≥ 2). Paths with weight gradients are the dependency
// chains on which greedy-tightening baselines serialize.
func Path(weights []int64) (*Hypergraph, error) {
	if len(weights) < 2 {
		return nil, fmt.Errorf("hypergraph: Path needs ≥ 2 vertices, got %d", len(weights))
	}
	b := NewBuilder(len(weights), len(weights)-1)
	for _, w := range weights {
		b.AddVertex(w)
	}
	for i := 0; i+1 < len(weights); i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

// GeometricPath generates a path whose weights grow geometrically:
// w(v_i) = base·ratio^i (capped at maxW). The weight gradient forces
// weight-scale-sensitive algorithms to climb the full range.
func GeometricPath(n int, base int64, ratio float64, maxW int64) (*Hypergraph, error) {
	if n < 2 || base < 1 || ratio < 1 || maxW < base {
		return nil, fmt.Errorf("hypergraph: invalid GeometricPath params n=%d base=%d ratio=%g", n, base, ratio)
	}
	weights := make([]int64, n)
	w := float64(base)
	for i := range weights {
		weights[i] = int64(w)
		if weights[i] > maxW {
			weights[i] = maxW
		}
		if weights[i] < 1 {
			weights[i] = 1
		}
		w *= ratio
	}
	return Path(weights)
}

// PowerLaw generates an f-uniform hypergraph with a heavy-tailed degree
// profile by preferential attachment: each of the m edges picks its
// vertices proportionally to (current degree + 1). A few hub vertices end
// with degree far above the median, so the local maximum degrees Δ(e)
// spread over orders of magnitude — the regime where the per-edge α(e)
// policy differs from the global one.
//
// Sampling uses the slot method: a pool holds one slot per vertex (the +1
// smoothing) plus one slot per incidence created so far, so a uniform draw
// from the pool is a draw proportional to deg+1 in O(1). Generation is
// O((n + m·f) · E[redraws]) and comfortably reaches millions of edges — the
// scale the sharded engine benchmarks need.
func PowerLaw(n, m, f int, cfg GenConfig) (*Hypergraph, error) {
	if n <= 0 || f <= 0 || f > n || m < 0 {
		return nil, fmt.Errorf("hypergraph: invalid PowerLaw params n=%d m=%d f=%d", n, m, f)
	}
	rng := cfg.rng()
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(cfg.drawWeight(rng))
	}
	slots := make([]VertexID, n, n+m*f)
	for v := 0; v < n; v++ {
		slots[v] = VertexID(v)
	}
	edge := make([]VertexID, 0, f)
	used := make(map[VertexID]bool, f)
	for e := 0; e < m; e++ {
		edge = edge[:0]
		clear(used)
		for len(edge) < f {
			v := slots[rng.Intn(len(slots))]
			if used[v] {
				continue // redraw; cheap unless f approaches the hub count
			}
			used[v] = true
			edge = append(edge, v)
		}
		b.AddEdge(edge...)
		slots = append(slots, edge...)
	}
	return b.Build()
}

// Lollipop generates the hard instance family for the bid-raising
// mechanism (f = 2): two heavy vertices a, b of weight heavyWeight joined
// by one edge, plus delta-1 unit-weight leaves attached to a. The leaf
// edges are covered within a couple of iterations by the cheap leaves,
// after which the surviving edge {a, b} must raise its dual from the
// iteration-0 value heavyWeight/(2Δ) up to the weight scale — a factor-Δ
// climb that takes Θ(log_α Δ) raise iterations, exhibiting the Theorem 8
// trade-off that stars (covered in O(1) rounds by their center) cannot.
// Requires delta ≥ 2 and heavyWeight > delta (so a's normalized weight
// exceeds the leaves').
func Lollipop(delta int, heavyWeight int64) (*Hypergraph, error) {
	if delta < 2 || heavyWeight <= int64(delta) {
		return nil, fmt.Errorf("hypergraph: invalid Lollipop params delta=%d w=%d", delta, heavyWeight)
	}
	b := NewBuilder(delta+1, delta)
	a := b.AddVertex(heavyWeight)
	bb := b.AddVertex(heavyWeight)
	b.AddEdge(a, bb)
	for i := 0; i < delta-1; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(a, leaf)
	}
	return b.Build()
}

// CompleteGraph generates K_n with unit weights (f = 2, Δ = n-1).
func CompleteGraph(n int) (*Hypergraph, error) {
	if n < 2 {
		return nil, fmt.Errorf("hypergraph: CompleteGraph needs n ≥ 2, got %d", n)
	}
	b := NewBuilder(n, n*(n-1)/2)
	for i := 0; i < n; i++ {
		b.AddVertex(1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(VertexID(i), VertexID(j))
		}
	}
	return b.Build()
}

// SetCoverInstance builds the MWHVC hypergraph equivalent of a weighted set
// cover instance: subsets become vertices (weight = set cost) and elements
// become hyperedges over the subsets containing them (Section 2 reduction).
// sets[i] lists the element ids covered by subset i; elements are numbered
// 0..numElements-1 and every element must appear in ≥ 1 set.
func SetCoverInstance(numElements int, sets [][]int, costs []int64) (*Hypergraph, error) {
	if len(sets) != len(costs) {
		return nil, fmt.Errorf("hypergraph: %d sets but %d costs", len(sets), len(costs))
	}
	b := NewBuilder(len(sets), numElements)
	for _, c := range costs {
		b.AddVertex(c)
	}
	byElement := make([][]VertexID, numElements)
	for si, elems := range sets {
		for _, x := range elems {
			if x < 0 || x >= numElements {
				return nil, fmt.Errorf("hypergraph: element %d out of range [0,%d)", x, numElements)
			}
			byElement[x] = append(byElement[x], VertexID(si))
		}
	}
	for x, vs := range byElement {
		if len(vs) == 0 {
			return nil, fmt.Errorf("%w: element %d not covered by any set", ErrEmptyEdge, x)
		}
		b.AddEdge(vs...)
	}
	return b.Build()
}
