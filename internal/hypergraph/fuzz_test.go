package hypergraph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// FuzzJSONDecode throws arbitrary bytes at the instance decoder: it must
// never panic, and anything it accepts must validate and round-trip.
func FuzzJSONDecode(f *testing.F) {
	f.Add([]byte(`{"weights":[1,2],"edges":[[0,1]]}`))
	f.Add([]byte(`{"weights":[],"edges":[]}`))
	f.Add([]byte(`{"weights":[5],"edges":[[0],[0]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"weights":[0],"edges":[[9]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Hypergraph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected; fine
		}
		if err := Validate(&g); err != nil {
			t.Fatalf("accepted instance fails Validate: %v", err)
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted instance fails Marshal: %v", err)
		}
		var g2 Hypergraph
		if err := json.Unmarshal(out, &g2); err != nil {
			t.Fatalf("re-encoded instance rejected: %v", err)
		}
		out2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("round trip not stable")
		}
	})
}

// decodeSeeds are the shapes the one-pass scanner must either decode
// exactly as encoding/json does or hand to decodeReference: whitespace and
// key order, unknown keys, null, repeated and case- or escape-variant keys,
// number forms, out-of-range ids, empty edges and trailing bytes.
var decodeSeeds = []string{
	`{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]}`,
	" {\n\t\"edges\" : [ [ 2 , 0 ] ,[1]] ,\r\n \"weights\" : [ 5 , 6 , 7 ] } \n",
	`{"edges":[[0,1]],"weights":[1,1]}`,
	`{}`,
	`{ }`,
	`{"weights":[],"edges":[]}`,
	`{"weights":[ ],"edges":[ ]}`,
	`{"weights":[4,4]}`,
	`{"edges":[]}`,
	`{"edges":[[0]]}`,
	`{"weights":[1,2],"edges":[[1,0,1],[1,1]]}`,
	`{"weights":[1,1,1,1,1],"edges":[[4,3,2,1,0,4]]}`,
	`{"weights":[1],"edges":[[0]],"meta":{"a":[1,{"b":null}],"s":"x\"}"}}`,
	`{"note":"x","weights":[1],"edges":[[0]]}`,
	`null`,
	` null `,
	`{"weights":null,"edges":null}`,
	`{"weights":[1,null],"edges":[[0]]}`,
	`{"weights":[1],"edges":[null]}`,
	`{"weights":[1],"edges":[[null]]}`,
	`{"weights":[1,1],"edges":[[1,null]]}`,
	`{"weights":[1],"weights":[2,3],"edges":[[1]]}`,
	`{"edges":[[0,1]],"weights":[1,1],"edges":[[null]]}`,
	`{"WEIGHTS":[1],"edges":[[0]]}`,
	`{"Edges":[[0]],"weights":[1]}`,
	`{"weightſ":[1],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[-0]]}`,
	`{"weights":[-0],"edges":[]}`,
	`{"weights":[1.0],"edges":[]}`,
	`{"weights":[1],"edges":[[0.0]]}`,
	`{"weights":[1e2],"edges":[]}`,
	`{"weights":[1E+2],"edges":[]}`,
	`{"weights":[01],"edges":[]}`,
	`{"weights":[1],"edges":[[00]]}`,
	`{"weights":[9223372036854775807],"edges":[[0]]}`,
	`{"weights":[9223372036854775808],"edges":[]}`,
	`{"weights":[-9223372036854775808],"edges":[]}`,
	`{"weights":[1],"edges":[[9223372036854775808]]}`,
	`{"weights":[1],"edges":[[9223372036854775807]]}`,
	`{"weights":[1],"edges":[[1]]}`,
	`{"weights":[1],"edges":[[-1]]}`,
	`{"weights":[1,2],"edges":[[0,-1]]}`,
	`{"weights":[0],"edges":[]}`,
	`{"weights":[+1],"edges":[]}`,
	`{"weights":[1],"edges":[[]]}`,
	`{"weights":[1],"edges":[[0],[]]}`,
	`{"weights":[1],"edges":[[0]]} x`,
	`{"weights":[1],"edges":[[0]]}}`,
	`{"weights":[1],"edges":[[0]]}` + "\n",
	`{"weights":[1,],"edges":[]}`,
	`{"weights":[1],"edges":[],}`,
	`{"weights":[1] "edges":[]}`,
	`{"weights":[1],"edges":[[0]]`,
	`{"weights":"1"}`,
	`[]`,
	``,
	"\xef\xbb\xbf{}",
}

// FuzzDecodeMatchesReference checks UnmarshalJSON, which scans the plain
// shape in one pass, against decodeReference, the encoding/json decoder it
// falls back to: both must accept and reject the same inputs with the same
// error text and build the same hypergraph.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Hypergraph
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := decodeReference(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalJSON error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", gotErr, wantErr)
			}
			return
		}
		requireSameGraph(t, &got, want)
		if g, ok := scanInstance(data); ok {
			if cap(g.weights) != len(g.weights) || cap(g.edgeOff) != len(g.edgeOff) ||
				cap(g.edgeVerts) != len(g.edgeVerts) {
				t.Fatal("scanned arrays carry spare capacity")
			}
		}
	})
}

// requireSameGraph compares two hypergraphs through their accessors.
func requireSameGraph(t *testing.T, got, want *Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !slices.Equal(got.Weights(), want.Weights()) {
		t.Fatalf("weights %v, want %v", got.Weights(), want.Weights())
	}
	for e := 0; e < want.NumEdges(); e++ {
		if !slices.Equal(got.Edge(EdgeID(e)), want.Edge(EdgeID(e))) {
			t.Fatalf("edge %d = %v, want %v", e, got.Edge(EdgeID(e)), want.Edge(EdgeID(e)))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !slices.Equal(got.Incident(VertexID(v)), want.Incident(VertexID(v))) {
			t.Fatalf("incident(%d) = %v, want %v", v, got.Incident(VertexID(v)), want.Incident(VertexID(v)))
		}
	}
	if got.Rank() != want.Rank() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("rank/Δ %d/%d, want %d/%d", got.Rank(), got.MaxDegree(), want.Rank(), want.MaxDegree())
	}
	if got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("MemoryBytes %d, want %d", got.MemoryBytes(), want.MemoryBytes())
	}
	if got.Hash() != want.Hash() {
		t.Fatal("hash differs")
	}
}

// FuzzExtendChain grows a multi-chunk base, built from a fuzzed seed, by a
// fuzzed sequence of deltas, each extending the graph before it, and
// requires Hash to equal a from-scratch build's after every step. Deltas
// mix random edges, copies of existing edges, vertex-only and empty
// deltas, and bursts of edges led by one vertex, which grow a chunk past
// its split size.
func FuzzExtendChain(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), []byte{4, 9, 7, 5, 2, 0, 9, 200, 1, 3})
	f.Add(int64(3), []byte{6, 1, 2, 3, 6, 1, 2, 200, 9, 0, 10})
	f.Add(int64(4), []byte{11, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		o := &oracle{}
		o.extend(randomWeights(rng, n), randomEdges(rng, 0, n, 1000+rng.Intn(2000), 4))
		g := MustNew(o.weights, o.edges)
		next := func() int { // the next byte of ops; 0 once they run out
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for step := 0; step < 12 && len(ops) > 0; step++ {
			op := next()
			addW := make([]int64, op%3)
			for i := range addW {
				addW[i] = 1 + int64(next())
			}
			nv := len(o.weights) + len(addW)
			vertex := func() int { return (next()<<8 | next()) % nv }
			var addE [][]VertexID
			switch op / 3 % 4 {
			case 0: // random edges
				for k := next() % 16; k > 0; k-- {
					e := make([]VertexID, 1+next()%5)
					for i := range e {
						e[i] = VertexID(vertex())
					}
					addE = append(addE, e)
				}
			case 1: // copies of existing edges
				for k := next() % 16; k > 0; k-- {
					addE = append(addE, slices.Clone(o.edges[(next()<<8|next())%len(o.edges)]))
				}
			case 2: // a burst of edges led by one vertex
				v := vertex()
				for k := 900 + next(); k > 0; k-- {
					addE = append(addE, []VertexID{VertexID(v), VertexID(v + k%(nv-v))})
				}
			}
			h, err := g.Extend(addW, addE)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			o.extend(addW, addE)
			requireStream(t, "fuzz", h)
			if got, want := h.Hash(), o.rebuildHash(); got != want {
				t.Fatalf("step %d: hash %s, rebuild %s", step, got, want)
			}
			g = h
		}
	})
}
