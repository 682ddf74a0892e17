package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"distcover/internal/core"
)

// FuzzPeerFrame hammers the peer protocol's binary codecs: arbitrary bytes
// must decode without panicking or over-allocating, and everything that
// decodes must re-encode to the same bytes (the codecs are canonical).
// Seeds cover both frame layers (plain handshake framing and the
// multiplexed framing every later frame uses), the boundary codec and the
// combined relay codec; the fuzzer mutates from there.
func FuzzPeerFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, ftBoundary})
	f.Add(encodeBoundary(nil, 3, core.BoundaryFrame{
		Part: 1,
		States: []core.BoundaryState{
			{V: 2, Level: 5, Joined: true},
			{V: 9, Level: 0, Raise: true},
		},
	}))
	f.Add(encodeCoverage(nil, 7, 41))
	f.Add(encodeCombinedBoundary(nil, 2, [][]byte{
		encodeBoundary(nil, 2, core.BoundaryFrame{Part: 0, States: []core.BoundaryState{{V: 1, Level: 1}}}),
		encodeBoundary(nil, 2, core.BoundaryFrame{Part: 1}),
	}))
	var framed bytes.Buffer
	if err := writeFrame(&framed, ftResult, []byte(`{"part":0}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	var framedV3 bytes.Buffer
	if err := writeFrameV3(&framedV3, 2, ftCoverage, encodeCoverage(nil, 4, 9)); err != nil {
		f.Fatal(err)
	}
	f.Add(framedV3.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer: must never panic, and on success the re-framed bytes
		// must round-trip.
		if ft, payload, err := readFrame(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeFrame(&buf, ft, payload); err != nil {
				t.Fatalf("re-frame failed: %v", err)
			}
			ft2, payload2, err := readFrame(&buf)
			if err != nil || ft2 != ft || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame round-trip diverged: %v", err)
			}
		}

		// Multiplexed frame layer: same properties, channel id included.
		if ch, ft, payload, err := readFrameV3(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeFrameV3(&buf, ch, ft, payload); err != nil {
				t.Fatalf("v3 re-frame failed: %v", err)
			}
			ch2, ft2, payload2, err := readFrameV3(&buf)
			if err != nil || ch2 != ch || ft2 != ft || !bytes.Equal(payload2, payload) {
				t.Fatalf("v3 frame round-trip diverged: %v", err)
			}
		}

		// Boundary codec: whatever decodes must re-encode to a payload that
		// decodes to the same value (binary.Uvarint tolerates non-minimal
		// varints, so hostile input can be semantically valid without being
		// byte-canonical; our own encoder always emits the minimal form).
		if it, fr, err := decodeBoundary(data); err == nil {
			re := encodeBoundary(nil, it, fr)
			it2, fr2, err := decodeBoundary(re)
			if err != nil || it2 != it || !reflect.DeepEqual(fr2, fr) {
				t.Fatalf("boundary re-encode round-trip diverged: %v", err)
			}
		}

		// Combined codec: same fixpoint property across the relay layer.
		if it, frames, err := decodeCombinedBoundary(data); err == nil {
			payloads := make([][]byte, len(frames))
			for i, fr := range frames {
				payloads[i] = encodeBoundary(nil, it, fr)
			}
			re := encodeCombinedBoundary(nil, it, payloads)
			it2, frames2, err := decodeCombinedBoundary(re)
			if err != nil || it2 != it || !reflect.DeepEqual(frames2, frames) {
				t.Fatalf("combined re-encode round-trip diverged: %v", err)
			}
		}

		// Coverage codec.
		if it, cov, err := decodeCoverage(data); err == nil {
			re := encodeCoverage(nil, it, cov)
			it2, cov2, err := decodeCoverage(re)
			if err != nil || it2 != it || cov2 != cov {
				t.Fatalf("coverage re-encode round-trip diverged: %v", err)
			}
		}
	})
}
