package hypergraph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// jsonInstance is the on-disk JSON shape of a hypergraph instance.
type jsonInstance struct {
	Weights []int64 `json:"weights"`
	Edges   [][]int `json:"edges"`
}

// MarshalJSON encodes the hypergraph as {"weights":[...],"edges":[[...]]}.
func (g *Hypergraph) MarshalJSON() ([]byte, error) {
	inst := jsonInstance{
		Weights: g.Weights(),
		Edges:   make([][]int, g.NumEdges()),
	}
	for e := 0; e < g.NumEdges(); e++ {
		vs := g.Edge(EdgeID(e))
		row := make([]int, len(vs))
		for i, v := range vs {
			row[i] = int(v)
		}
		inst.Edges[e] = row
	}
	return json.Marshal(inst)
}

// UnmarshalJSON decodes and validates a hypergraph. A valid instance in the
// plain shape is scanned straight into the CSR arrays (see scanInstance);
// every other input goes through decodeReference, which decides the
// outcome and words the error.
func (g *Hypergraph) UnmarshalJSON(data []byte) error {
	h, ok := scanInstance(data)
	if !ok {
		var err error
		if h, err = decodeReference(data); err != nil {
			return err
		}
	}
	*g = *h
	return nil
}

// decodeReference is the encoding/json decoder: it decodes into slices and
// validates through the Builder. It accepts everything encoding/json does
// for the jsonInstance shape (unknown keys, null, case-insensitive and
// escaped keys, repeated keys) and is the reference the fast scanner is
// fuzzed against.
func decodeReference(data []byte) (*Hypergraph, error) {
	var inst jsonInstance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, fmt.Errorf("hypergraph: decode: %w", err)
	}
	b := NewBuilder(len(inst.Weights), len(inst.Edges))
	for _, w := range inst.Weights {
		b.AddVertex(w)
	}
	for _, row := range inst.Edges {
		vs := make([]VertexID, len(row))
		for i, v := range row {
			vs[i] = VertexID(v)
		}
		b.AddEdge(vs...)
	}
	return b.Build()
}

// scanInstance decodes a valid instance in the plain shape: one object
// whose keys are exactly "weights" and "edges", each at most once and in
// either order, holding arrays of integer literals, with JSON whitespace
// anywhere. A counting pass sizes the arrays exactly, as Build does (Extend
// claims spare capacity and MemoryBytes counts lengths, so slack would be
// memory the session budget cannot see); a second pass fills them, sorting
// and deduplicating each edge in place.
//
// ok is false for any other input and for any instance that fails
// validation. Every such input goes to decodeReference, so this scanner
// only has to be right about what it accepts: anything unusual — null, a
// fraction, an exponent, an overflow, an unknown, escaped or repeated key —
// is simply not its business.
func scanInstance(data []byte) (g *Hypergraph, ok bool) {
	count := instanceScan{data: data}
	if !count.run() {
		return nil, false
	}
	g = &Hypergraph{
		edgeOff:   make([]int, count.edges+1),
		edgeVerts: make([]VertexID, count.verts),
	}
	if count.vertices > 0 {
		g.weights = make([]int64, count.vertices)
	}
	fill := instanceScan{data: data, g: g}
	if !fill.run() {
		return nil, false
	}
	if fill.verts < count.verts { // an edge listed a vertex twice
		verts := make([]VertexID, fill.verts)
		copy(verts, g.edgeVerts)
		g.edgeVerts = verts
	}
	g.buildIncidence()
	return g, true
}

// instanceScan is one pass of scanInstance over data. With g nil it only
// counts; with g sized from a counting pass it also stores.
type instanceScan struct {
	data []byte
	pos  int
	g    *Hypergraph

	vertices, edges, verts int // weights, edges and edge entries scanned so far
}

const (
	keyWeights = `"weights"`
	keyEdges   = `"edges"`
)

// run scans the whole input: one object, then only whitespace.
func (s *instanceScan) run() bool {
	if s.next() != '{' {
		return false
	}
	if s.literal("}") {
		return s.end()
	}
	var seenWeights, seenEdges bool
	for {
		switch {
		case !seenWeights && s.literal(keyWeights):
			seenWeights = true
			if s.next() != ':' || !s.weights() {
				return false
			}
		case !seenEdges && s.literal(keyEdges):
			seenEdges = true
			if s.next() != ':' || !s.edgeList() {
				return false
			}
		default:
			return false
		}
		switch s.next() {
		case ',':
		case '}':
			return s.end()
		default:
			return false
		}
	}
}

// weights scans the weight array. A weight ≤ 0 fails validation.
func (s *instanceScan) weights() bool {
	if s.next() != '[' {
		return false
	}
	if s.literal("]") {
		return true
	}
	for {
		w, ok := s.integer()
		if !ok || w <= 0 {
			return false
		}
		if s.g != nil {
			s.g.weights[s.vertices] = w
		}
		s.vertices++
		switch s.next() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// edgeList scans the edge array, and in the fill pass sorts and
// deduplicates each edge in place. An empty edge or, in the fill pass
// (where n is known whichever key came first), a vertex id ≥ n fails
// validation.
func (s *instanceScan) edgeList() bool {
	if s.next() != '[' {
		return false
	}
	if s.literal("]") {
		return true
	}
	for {
		if s.next() != '[' {
			return false
		}
		start := s.verts
		for done := false; !done; {
			v, ok := s.integer()
			if !ok {
				return false
			}
			if s.g != nil {
				if v >= int64(len(s.g.weights)) {
					return false
				}
				s.g.edgeVerts[s.verts] = VertexID(v)
			}
			s.verts++
			switch s.next() {
			case ',':
			case ']':
				done = true
			default:
				return false
			}
		}
		s.edges++
		if s.g != nil {
			row := s.g.edgeVerts[start:s.verts]
			slices.Sort(row)
			s.verts = start + len(slices.Compact(row))
			s.g.edgeOff[s.edges] = s.verts
		}
		switch s.next() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// integer scans an integer literal, -?(0|[1-9][0-9]*), that fits an
// int64. A negative value other than -0 fails validation wherever it
// appears, so it is refused here.
func (s *instanceScan) integer() (int64, bool) {
	s.skipSpace()
	data, i := s.data, s.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		if v > math.MaxInt64/10 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	s.pos = i
	digits := i - start
	if digits == 0 || (digits > 1 && data[start] == '0') || v > math.MaxInt64 || (neg && v != 0) {
		return 0, false
	}
	return int64(v), true
}

// next skips whitespace and consumes one byte; 0 at the end of data.
func (s *instanceScan) next() byte {
	s.skipSpace()
	if s.pos == len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

// literal skips whitespace and consumes lit if it comes next.
func (s *instanceScan) literal(lit string) bool {
	s.skipSpace()
	end := s.pos + len(lit)
	if end > len(s.data) || string(s.data[s.pos:end]) != lit {
		return false
	}
	s.pos = end
	return true
}

// end reports whether only whitespace follows the cursor.
func (s *instanceScan) end() bool {
	s.skipSpace()
	return s.pos == len(s.data)
}

func (s *instanceScan) skipSpace() {
	i := s.pos
	for i < len(s.data) && (s.data[i] == ' ' || s.data[i] == '\t' || s.data[i] == '\n' || s.data[i] == '\r') {
		i++
	}
	s.pos = i
}

// WriteTo serializes g as JSON to w.
func (g *Hypergraph) WriteTo(w io.Writer) (int64, error) {
	data, err := g.MarshalJSON()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// ReadFrom parses a JSON hypergraph from r.
func ReadFrom(r io.Reader) (*Hypergraph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hypergraph: read: %w", err)
	}
	var g Hypergraph
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &g, nil
}
