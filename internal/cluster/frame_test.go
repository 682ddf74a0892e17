package cluster

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"distcover/internal/core"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello cluster")
	if err := writeFrame(&buf, ftSetup, payload); err != nil {
		t.Fatal(err)
	}
	ft, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != ftSetup || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type %d payload %q", ft, got)
	}

	// Multiplexed framing: the channel id rides along.
	if err := writeFrameV3(&buf, 517, ftBoundary, payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != frameWireBytesV3(len(payload)) {
		t.Fatalf("v3 frame is %d bytes on the wire, want %d", buf.Len(), frameWireBytesV3(len(payload)))
	}
	ch, ft, got, err := readFrameV3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 517 || ft != ftBoundary || !bytes.Equal(got, payload) {
		t.Fatalf("v3 round trip: channel %d type %d payload %q", ch, ft, got)
	}
}

func TestFrameRejectsOversizeAndUnknown(t *testing.T) {
	// Oversize declared length must fail before allocating.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, ftSetup}
	if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: err = %v, want ErrFrameTooLarge", err)
	}
	// Unknown type byte.
	bad := []byte{0, 0, 0, 0, 99}
	if _, _, err := readFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown type: err = %v, want ErrBadFrame", err)
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := writeFrame(&buf, ftBoundary, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: err = %v, want ErrUnexpectedEOF", err)
	}

	// The same three rejections under multiplexed framing. The oversize
	// header is followed by nothing: rejecting it must not try to read
	// (let alone allocate) the declared payload.
	hdr3 := []byte{0xff, 0xff, 0xff, 0xff, ftSetup, 0, 1}
	if _, _, _, err := readFrameV3(bytes.NewReader(hdr3)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("v3 oversize: err = %v, want ErrFrameTooLarge", err)
	}
	bad3 := []byte{0, 0, 0, 0, 99, 0, 1}
	if _, _, _, err := readFrameV3(bytes.NewReader(bad3)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v3 unknown type: err = %v, want ErrBadFrame", err)
	}
	if _, _, _, err := readFrameV3(bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 1})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v3 type 0: err = %v, want ErrBadFrame", err)
	}
	buf.Reset()
	if err := writeFrameV3(&buf, 3, ftBoundary, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc = buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := readFrameV3(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("v3 truncated: err = %v, want ErrUnexpectedEOF", err)
	}
	// A header cut inside the channel id is truncated too.
	if _, _, _, err := readFrameV3(bytes.NewReader(buf.Bytes()[:6])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("v3 truncated header: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestBoundaryCodecRoundTrip(t *testing.T) {
	fr := core.BoundaryFrame{
		Part: 3,
		States: []core.BoundaryState{
			{V: 0, Level: 0, Joined: false, Raise: true},
			{V: 7, Level: 12, Joined: true, Raise: false},
			{V: 8, Level: 1, Joined: true, Raise: true},
			{V: 1 << 20, Level: 30, Joined: false, Raise: false},
		},
	}
	payload := encodeBoundary(nil, 42, fr)
	it, got, err := decodeBoundary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if it != 42 || !reflect.DeepEqual(got, fr) {
		t.Fatalf("round trip: iter %d frame %+v, want 42 %+v", it, got, fr)
	}
	// Empty frame.
	payload = encodeBoundary(payload, 1, core.BoundaryFrame{Part: 0})
	if _, got, err = decodeBoundary(payload); err != nil || len(got.States) != 0 {
		t.Fatalf("empty frame: %v %+v", err, got)
	}
}

func TestCombinedBoundaryRoundTrip(t *testing.T) {
	frames := []core.BoundaryFrame{
		{Part: 0, States: []core.BoundaryState{{V: 2, Level: 3, Raise: true}}},
		{Part: 1},
		{Part: 2, States: []core.BoundaryState{{V: 5, Level: 0, Joined: true}, {V: 6, Level: 9}}},
	}
	var payloads [][]byte
	for _, fr := range frames {
		payloads = append(payloads, encodeBoundary(nil, 7, fr))
	}
	combined := encodeCombinedBoundary(nil, 7, payloads)
	it, got, err := decodeCombinedBoundary(combined)
	if err != nil {
		t.Fatal(err)
	}
	if it != 7 || !reflect.DeepEqual(got, frames) {
		t.Fatalf("round trip: iter %d frames %+v", it, got)
	}
	// An inner frame from another iteration is a protocol violation.
	payloads[1] = encodeBoundary(nil, 8, frames[1])
	combined = encodeCombinedBoundary(nil, 7, payloads)
	if _, _, err := decodeCombinedBoundary(combined); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("iteration mismatch: err = %v, want ErrBadFrame", err)
	}
}

func TestCoverageCodecRoundTrip(t *testing.T) {
	payload := encodeCoverage(nil, 9, 137)
	it, cov, err := decodeCoverage(payload)
	if err != nil || it != 9 || cov != 137 {
		t.Fatalf("round trip: %d %d %v", it, cov, err)
	}
	if _, _, err := decodeCoverage(payload[:1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated: err = %v, want ErrBadFrame", err)
	}
	if _, _, err := decodeCoverage(append(payload, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: err = %v, want ErrBadFrame", err)
	}
}

func TestBoundaryDecodeCorruption(t *testing.T) {
	fr := core.BoundaryFrame{Part: 1, States: []core.BoundaryState{{V: 3, Level: 2}, {V: 9, Level: 4, Joined: true}}}
	payload := encodeBoundary(nil, 5, fr)
	// Truncations at every length must fail cleanly (or decode to a valid
	// prefix-free frame — they cannot, because the count is up front).
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeBoundary(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// A count far beyond the payload must be rejected before allocation.
	huge := encodeCoverage(nil, 1, 0) // iteration 1, then reuse as prefix
	huge = append(huge[:1], 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, _, err := decodeBoundary(huge); err == nil {
		t.Fatal("hostile count decoded successfully")
	}
}
