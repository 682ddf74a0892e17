package hypergraph

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	g, err := UniformRandom(25, 40, 3, GenConfig{Seed: 11, Dist: WeightUniformRange, MaxWeight: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var h Hypergraph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	data2, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("JSON round trip not stable")
	}
	if h.Rank() != g.Rank() || h.MaxDegree() != g.MaxDegree() {
		t.Error("round trip changed derived stats")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"bad json", `{`},
		{"empty edge", `{"weights":[1],"edges":[[]]}`},
		{"range", `{"weights":[1],"edges":[[4]]}`},
		{"zero weight", `{"weights":[0],"edges":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var g Hypergraph
			if err := json.Unmarshal([]byte(tt.data), &g); err == nil {
				t.Errorf("Unmarshal(%s) succeeded, want error", tt.data)
			}
		})
	}
}

func TestWriteToReadFrom(t *testing.T) {
	g := MustNew([]int64{2, 3}, [][]VertexID{{0, 1}})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if h.NumVertices() != 2 || h.NumEdges() != 1 || h.Weight(1) != 3 {
		t.Errorf("round trip mismatch: %s", h)
	}
}

func TestReadFromError(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("not json")); err == nil {
		t.Error("ReadFrom(garbage) succeeded")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw % 30)
		f := 2
		if f > n {
			f = n
		}
		g, err := UniformRandom(n, m, f, GenConfig{Seed: seed, Dist: WeightUniformRange, MaxWeight: 7})
		if err != nil {
			return false
		}
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var h Hypergraph
		if err := json.Unmarshal(data, &h); err != nil {
			return false
		}
		data2, err := json.Marshal(&h)
		return err == nil && bytes.Equal(data, data2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestScanInstanceTakesPlainShape pins which inputs the one-pass scanner
// decodes itself rather than handing to the encoding/json reference.
func TestScanInstanceTakesPlainShape(t *testing.T) {
	for _, data := range []string{
		`{}`,
		`{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]}`,
		" {\n\t\"edges\" : [ [ 2 , 0 ] ,[1]] ,\r\n \"weights\" : [ 5 , 6 , 7 ] } \n",
		`{"weights":[1,2],"edges":[[1,0,1],[-0]]}`,
		`{"weights":[9223372036854775807]}`,
	} {
		if _, ok := scanInstance([]byte(data)); !ok {
			t.Errorf("scanner declined %q", data)
		}
	}
	for _, data := range []string{
		`null`,
		`{"weights":null}`,
		`{"Weights":[1]}`,
		`{"weights":[1],"weights":[1]}`,
		`{"weights":[1],"note":0}`,
		`{"weights":[1e0]}`,
		`{"weights":[9223372036854775808]}`,
		`{"weights":[1],"edges":[[1]]}`,
	} {
		if _, ok := scanInstance([]byte(data)); ok {
			t.Errorf("scanner accepted %q", data)
		}
	}
}
