package main

import (
	"math/rand"
	"slices"
	"strconv"

	"distcover"
)

// Instance shape of the solve workloads: 3-uniform, n=10,000, m=20,000,
// weights 1..100.
const (
	solveN    = 10000
	solveM    = 20000
	rank      = 3
	maxWeight = 100

	// Session workload: one base instance of this size per run, grown by
	// fixed deltas of deltaVertices new vertices and deltaEdges new edges.
	// At n=100,000 the per-update state response is memory-bound, and its
	// medians moved by 40% with the cache pressure of other tenants on a
	// shared host; at this size they hold still. The deltas are small so
	// that the ~2,000 updates a session takes in a 20 s window grow its
	// edge set by about half, not several times over.
	sessionN      = 20000
	sessionM      = 40000
	deltaVertices = 1
	deltaEdges    = 10
)

// solveStructures distinct edge sets are drawn per seed, each with its own
// base weight vector. Request i uses structure i mod solveStructures with
// the weights of its first tagVertices vertices replaced by the digits
// (base 100) of i / solveStructures, so every request is an instance
// coverd has never seen — its content hash differs — while the bench holds
// only solveStructures encoded instances in memory and never runs dry.
const (
	solveStructures = 16
	tagVertices     = 4
)

// Salts separate the random streams drawn from one --seed, so adding a
// stream never shifts another.
const (
	saltStructure = 1 << 20
	saltCold      = 2 << 20
	saltCached    = 3 << 20
	saltSession   = 4 << 20
	saltDelta     = 5 << 20
	saltProbe     = 6 << 20
)

func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// genEdges draws m edges of f distinct vertices uniformly from [0, n).
func genEdges(r *rand.Rand, n, m, f int) [][]int {
	edges := make([][]int, m)
	flat := make([]int, m*f)
	for e := range edges {
		vs := flat[e*f : e*f : (e+1)*f]
		for len(vs) < f {
			if v := r.Intn(n); !slices.Contains(vs, v) {
				vs = append(vs, v)
			}
		}
		edges[e] = vs
	}
	return edges
}

func genWeights(r *rand.Rand, n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + r.Int63n(maxWeight)
	}
	return w
}

// appendInts appends the comma-separated decimal list of xs (no brackets).
func appendInts[T int | int64](dst []byte, xs []T) []byte {
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

func appendEdges(dst []byte, edges [][]int) []byte {
	dst = append(dst, '[')
	for i, e := range edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = appendInts(dst, e)
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// instanceJSON encodes an instance in the library's codec shape.
func instanceJSON(weights []int64, edges [][]int) []byte {
	dst := append([]byte(nil), `{"weights":[`...)
	dst = appendInts(dst, weights)
	dst = append(dst, `],"edges":`...)
	dst = appendEdges(dst, edges)
	return append(dst, '}')
}

// solveInputs encodes solve requests of the solve shape. Request i is
//
//	{"options":<opts>,"instance":{"weights":[<tag(i)>,<rest of base>],"edges":<edges>}}
//
// sent as three parts: the shared head, the request's tag weights, and the
// structure's pre-encoded tail.
type solveInputs struct {
	head    []byte
	weights [][]int64 // per structure: base weights
	edges   [][][]int // per structure
	tails   [][]byte  // per structure: base weights from tagVertices on, then the edges
}

func newSolveInputs(seed, salt int64, optionsJSON string) *solveInputs {
	in := &solveInputs{head: []byte(`{"options":` + optionsJSON + `,"instance":{"weights":[`)}
	r := newRand(seed, salt)
	for s := 0; s < solveStructures; s++ {
		e := genEdges(newRand(seed, saltStructure+int64(s)), solveN, solveM, rank)
		w := genWeights(r, solveN)
		tail := appendInts(nil, w[tagVertices:])
		tail = append(tail, `],"edges":`...)
		tail = appendEdges(tail, e)
		tail = append(tail, `}}`...)
		in.weights = append(in.weights, w)
		in.edges = append(in.edges, e)
		in.tails = append(in.tails, tail)
	}
	return in
}

// tag returns the weights of request i's first tagVertices vertices.
func tag(i int) []int64 {
	q := i / solveStructures
	t := make([]int64, tagVertices)
	for j := range t {
		t[j] = 1 + int64(q%maxWeight)
		q /= maxWeight
	}
	return t
}

// parts returns request i's body as parts to be sent back to back.
func (in *solveInputs) parts(i int) [][]byte {
	t := append(appendInts(nil, tag(i)), ',')
	return [][]byte{in.head, t, in.tails[i%solveStructures]}
}

// instance builds request i's instance in process (checks and replays).
func (in *solveInputs) instance(i int) (*distcover.Instance, error) {
	s := i % solveStructures
	w := append(tag(i), in.weights[s][tagVertices:]...)
	return distcover.NewInstance(w, in.edges[s])
}

func join(parts [][]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// genDelta draws the next update of a delta stream for a session that
// holds n vertices before it: deltaVertices new vertices and deltaEdges new
// 3-vertex edges. The first deltaVertices edges each pin one new vertex,
// so every update has residual work; the rest are uniform over all
// vertices, old and new.
func genDelta(r *rand.Rand, n int) distcover.Delta {
	d := distcover.Delta{Weights: genWeights(r, deltaVertices)}
	total := n + deltaVertices
	for j := 0; j < deltaEdges; j++ {
		var e []int
		if j < deltaVertices {
			e = append(e, n+j)
		}
		for len(e) < rank {
			if v := r.Intn(total); !slices.Contains(e, v) {
				e = append(e, v)
			}
		}
		d.Edges = append(d.Edges, e)
	}
	return d
}

func deltaJSON(d distcover.Delta) []byte {
	return instanceJSON(d.Weights, d.Edges)
}
