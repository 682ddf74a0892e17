package core

import (
	"testing"
	"testing/quick"

	"distcover/internal/congest"
	"distcover/internal/hypergraph"
)

func TestWireCodecRoundTrip(t *testing.T) {
	codec := WireCodec{}
	msgs := []congest.Message{
		msgVertexInfo{w: 12345, deg: 7},
		msgVertexInfo{w: 1, deg: 1},
		msgEdgeInit{wMin: 1 << 40, degMin: 3, localDelta: 999},
		msgVertexUpdate{inc: 0, raise: true},
		msgVertexUpdate{inc: 5, raise: false},
		msgVertexCovered{},
		msgEdgeUpdate{halvings: 9, raised: true},
		msgEdgeCovered{},
	}
	for _, m := range msgs {
		data, err := codec.Encode(m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		back, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("Decode(%#v): %v", m, err)
		}
		if back != m {
			t.Errorf("round trip changed %#v -> %#v", m, back)
		}
		// Encoded size must track the Bits() accounting: varint byte
		// rounding plus one tag byte.
		maxBytes := m.Bits()/8 + 3
		if len(data) > maxBytes {
			t.Errorf("%#v encodes to %d bytes, accounting allows ~%d", m, len(data), maxBytes)
		}
	}
}

func TestWireCodecRoundTripProperty(t *testing.T) {
	codec := WireCodec{}
	prop := func(w, deg uint32, inc uint8, raise bool) bool {
		m1 := msgVertexInfo{w: int64(w) + 1, deg: int64(deg) + 1}
		m2 := msgVertexUpdate{inc: int64(inc), raise: raise}
		for _, m := range []congest.Message{m1, m2} {
			data, err := codec.Encode(m)
			if err != nil {
				return false
			}
			back, err := codec.Decode(data)
			if err != nil || back != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWireCodecRejectsGarbage(t *testing.T) {
	codec := WireCodec{}
	for _, data := range [][]byte{nil, {}, {99}, {tagVertexInfo}, {tagVertexUpdate, 0x80}} {
		if _, err := codec.Decode(data); err == nil {
			t.Errorf("Decode(%v) succeeded", data)
		}
	}
	if _, err := codec.Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

// TestNetEngineMatchesSequential runs the full protocol over real TCP
// loopback connections and asserts the result is identical to the
// in-memory engines.
func TestNetEngineMatchesSequential(t *testing.T) {
	g, err := hypergraph.UniformRandom(25, 45, 3, hypergraph.GenConfig{
		Seed: 17, Dist: hypergraph.WeightUniformRange, MaxWeight: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, seqM, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{}, congest.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	netRes, netM, err := RunCongest(g, DefaultOptions(), nil, congest.NetEngine{Codec: WireCodec{}}, congest.Options{Validate: true})
	if err != nil {
		t.Fatalf("net engine: %v", err)
	}
	requireSameResult(t, seqRes, netRes)
	if netM.Rounds != seqM.Rounds || netM.Messages != seqM.Messages || netM.TotalBits != seqM.TotalBits {
		t.Errorf("metrics differ: net %+v vs seq %+v", netM, seqM)
	}
	if netM.WireBytes == 0 {
		t.Error("WireBytes not recorded")
	}
	// Wire bytes must be within the framing overhead of the bit accounting:
	// each message costs ≤ bits/8 + tag + 8-byte header, counted twice
	// (coordinator->node and node->coordinator), plus round frames.
	maxWire := 2*(netM.TotalBits/8+12*netM.Messages) + int64(netM.Rounds)*int64(g.NumVertices()+g.NumEdges())*16
	if netM.WireBytes > maxWire {
		t.Errorf("WireBytes = %d exceeds accounting envelope %d", netM.WireBytes, maxWire)
	}
}

func TestNetEngineRequiresCodec(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 1}, [][]hypergraph.VertexID{{0, 1}})
	_, _, err := RunCongest(g, DefaultOptions(), nil, congest.NetEngine{}, congest.Options{})
	if err == nil {
		t.Error("NetEngine without codec succeeded")
	}
}

func TestNetEngineEmptyNetwork(t *testing.T) {
	m, err := congest.NetEngine{Codec: WireCodec{}}.Run(congest.NewNetwork(), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", m.Rounds)
	}
}
