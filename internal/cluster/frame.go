package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// Wire format. Every frame is length-prefixed:
//
//	u32 big-endian payload length | u8 frame type | payload
//
// That plain framing carries the hello exchange only; every later frame
// is multiplexed and adds a u16 channel id after the type (writeFrameV3).
//
// Handshake, setup and result frames are JSON (the setup frame carries the
// instance — or, for session updates, the residual delta instance — in the
// exact {"weights":[...],"edges":[[...]]} shape of the library's instance
// and session-delta codec, so the cluster path reuses the session JSON
// codec end to end). The per-iteration frames are a tight binary codec:
// boundary vertex ids are delta-encoded uvarints ascending, and each
// vertex's level and two flags pack into a single uvarint
// (level<<2 | joined<<1 | raise).
//
// FuzzPeerFrame round-trips and corrupts these codecs; decode must never
// panic and never allocate beyond the declared counts for truncated or
// hostile input.

// Frame types.
const (
	ftHello      = 1  // JSON helloFrame, both directions
	ftSetup      = 2  // JSON setupFrame, coordinator -> peer
	ftBoundary   = 3  // binary boundary frame, peer -> coordinator
	ftAllB       = 4  // binary combined boundary frames, coordinator -> peer
	ftCoverage   = 5  // binary coverage frame, peer -> coordinator
	ftAllC       = 6  // binary combined coverage total, coordinator -> peer
	ftResult     = 7  // JSON resultFrame, peer -> coordinator
	ftError      = 8  // JSON errorFrame, peer -> coordinator
	ftHashOK     = 9  // ASCII hash echo: peer holds the instance (or ack), peer -> coordinator
	ftHashMiss   = 10 // ASCII hash echo: peer needs the instance, peer -> coordinator
	ftInstance   = 11 // instance-codec JSON re-sync after a miss, coordinator -> peer
	ftInvalidate = 12 // ASCII hash to drop from the peer cache, coordinator -> peer
	maxFT        = ftInvalidate
)

// Magic and versions of the handshake. Version 2 made the setup frame
// content-addressed: it carries the instance hash and the peer answers
// hashok/hashmiss before the solve proceeds (see docs/PROTOCOL.md).
// parseHello requires an exact match on the baseline `version` field, so
// v1 processes are refused at the handshake instead of misparsing setups.
//
// Version 3 multiplexes partitions over one connection: after the hello
// exchange every frame header gains a u16 big-endian channel id (the
// global partition index), so a peer process runs many RunPartition
// goroutines behind a single socket. The hello keeps `version: 2` on the
// wire and announces `max_version: 3`. Every connection runs v3; a hello
// announcing less (a v2-only build omits max_version) is refused by
// requireV3, so mixed-version processes fail at the handshake instead of
// misparsing each other's frames.
const (
	protoMagic      = "distcover-cluster"
	protoVersion    = 2
	protoMaxVersion = 3
)

// makeHello builds the hello this process sends.
func makeHello(traceID string) helloFrame {
	return helloFrame{Magic: protoMagic, Version: protoVersion, MaxVersion: protoMaxVersion, TraceID: traceID}
}

// requireV3 refuses a hello from a process that cannot speak the
// multiplexed framing every frame after the handshake uses.
func requireV3(h helloFrame) error {
	if h.MaxVersion < protoMaxVersion {
		return fmt.Errorf("%w: hello announces protocol v%d, v%d required",
			ErrBadFrame, max(h.Version, h.MaxVersion), protoMaxVersion)
	}
	return nil
}

// frameName maps a frame type to the label telemetry and logs use.
func frameName(ft byte) string {
	switch ft {
	case ftHello:
		return "hello"
	case ftSetup:
		return "setup"
	case ftBoundary:
		return "boundary"
	case ftAllB:
		return "allb"
	case ftCoverage:
		return "coverage"
	case ftAllC:
		return "allc"
	case ftResult:
		return "result"
	case ftError:
		return "error"
	case ftHashOK:
		return "hashok"
	case ftHashMiss:
		return "hashmiss"
	case ftInstance:
		return "instance"
	case ftInvalidate:
		return "invalidate"
	}
	return "unknown"
}

// frameWireBytes is the full on-wire size of a plain (handshake) frame
// with the given payload length: the 5-byte header plus payload.
func frameWireBytes(payloadLen int) int { return payloadLen + 5 }

// frameWireBytesV3 is the v3 equivalent: the header grows a u16 channel id.
func frameWireBytesV3(payloadLen int) int { return payloadLen + 7 }

// maxChannels bounds the v3 channel id space (the id is a u16).
const maxChannels = 1 << 16

// maxFrameBytes bounds a single frame; a corrupt length prefix must not
// drive an allocation of gigabytes.
const maxFrameBytes = 1 << 28

// Frame decode errors (typed so tests and the fuzz target can assert them).
var (
	ErrFrameTooLarge = errors.New("cluster: frame exceeds size limit")
	ErrBadFrame      = errors.New("cluster: malformed frame")
)

// helloFrame opens a connection in both directions. TraceID correlates
// one cluster solve across coordinator and peer logs; it is additive
// (omitted when empty). MaxVersion is the highest protocol version the
// sender speaks; it must be at least 3 (see requireV3).
type helloFrame struct {
	Magic      string `json:"magic"`
	Version    int    `json:"version"`
	MaxVersion int    `json:"max_version,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
}

// setupOptions is the JSON form of the core.Options subset a cluster solve
// distributes (trace/invariant collection stays coordinator-side, exact
// arithmetic is rejected before dialing).
type setupOptions struct {
	Epsilon       float64 `json:"epsilon"`
	FApprox       bool    `json:"f_approx,omitempty"`
	SingleLevel   bool    `json:"single_level,omitempty"`
	LocalAlpha    bool    `json:"local_alpha,omitempty"`
	FixedAlpha    float64 `json:"fixed_alpha,omitempty"`
	Gamma         float64 `json:"gamma,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
}

func toSetupOptions(o core.Options) setupOptions {
	return setupOptions{
		Epsilon:       o.Epsilon,
		FApprox:       o.FApprox,
		SingleLevel:   o.Variant == core.VariantSingleLevel,
		LocalAlpha:    o.Alpha == core.AlphaLocal,
		FixedAlpha:    fixedAlphaOf(o),
		Gamma:         o.Gamma,
		MaxIterations: o.MaxIterations,
	}
}

func fixedAlphaOf(o core.Options) float64 {
	if o.Alpha == core.AlphaFixed {
		return o.FixedAlpha
	}
	return 0
}

func (s setupOptions) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.Epsilon = s.Epsilon
	o.FApprox = s.FApprox
	if s.SingleLevel {
		o.Variant = core.VariantSingleLevel
	}
	switch {
	case s.LocalAlpha:
		o.Alpha = core.AlphaLocal
	case s.FixedAlpha != 0:
		o.Alpha = core.AlphaFixed
		o.FixedAlpha = s.FixedAlpha
	}
	if s.Gamma != 0 {
		o.Gamma = s.Gamma
	}
	o.MaxIterations = s.MaxIterations
	return o
}

// setupFrame ships one partition's share of a solve. Since protocol v2 the
// instance itself does not ride along: the frame carries the canonical
// content hash (hypergraph.Hash) of the instance being solved — the full
// instance for solves, the residual delta instance for session updates —
// plus the carried dual loads for warm starts, the partition plan and this
// peer's index. The peer answers ftHashOK when its content-addressed cache
// holds the instance, or ftHashMiss to request an ftInstance re-sync frame
// (the instance-codec JSON, sent once per missing peer).
type setupFrame struct {
	Hash    string       `json:"hash"`
	Carry   []float64    `json:"carry,omitempty"`
	Options setupOptions `json:"options"`
	Bounds  []int        `json:"bounds"`
	Part    int          `json:"part"`
	// TraceID of the solve this setup belongs to (additive, see
	// helloFrame).
	TraceID string `json:"trace_id,omitempty"`
}

// resultFrame is a peer's PartialResult in JSON (floats round-trip exactly
// through encoding/json's shortest-form encoding).
type resultFrame struct {
	Part        int       `json:"part"`
	Iterations  int       `json:"iterations"`
	MaxLevel    int       `json:"max_level"`
	Cover       []int32   `json:"cover,omitempty"`
	CoverWeight int64     `json:"cover_weight"`
	DualEdges   []int32   `json:"dual_edges,omitempty"`
	DualValues  []float64 `json:"dual_values,omitempty"`
	Z           int       `json:"z"`
	Alpha       float64   `json:"alpha"`
	Epsilon     float64   `json:"epsilon"`
}

// errorFrame reports a peer-side failure to the coordinator.
type errorFrame struct {
	Message string `json:"message"`
}

// writeFrame emits one length-prefixed frame.
func writeFrame(w io.Writer, ft byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = ft
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing the size limit before allocating.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > maxFrameBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	ft := hdr[4]
	if ft == 0 || ft > maxFT {
		return 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, ft)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return ft, payload, nil
}

// writeJSONFrame marshals v and emits it as one frame of type ft.
func writeJSONFrame(w io.Writer, ft byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, ft, payload)
}

// writeFrameV3 emits one multiplexed frame:
//
//	u32 big-endian payload length | u8 frame type | u16 big-endian channel | payload
//
// The channel id is the global partition index of the solve the frame
// belongs to (channel 0 also carries invalidations, which are not tied to
// a partition).
func writeFrameV3(w io.Writer, ch uint16, ft byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = ft
	binary.BigEndian.PutUint16(hdr[5:7], ch)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameV3 reads one multiplexed frame, enforcing the size limit
// before allocating.
func readFrameV3(r io.Reader) (ch uint16, ft byte, payload []byte, err error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > maxFrameBytes {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	ft = hdr[4]
	if ft == 0 || ft > maxFT {
		return 0, 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, ft)
	}
	ch = binary.BigEndian.Uint16(hdr[5:7])
	payload = make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return ch, ft, payload, nil
}

// encodeBoundary packs one partition's per-iteration boundary broadcast:
//
//	uvarint iteration | uvarint part | uvarint count |
//	count × (uvarint vertex-id delta | uvarint level<<2|joined<<1|raise)
//
// Vertex ids must be ascending (the partition runner emits them that way),
// which makes the id stream delta-encodable.
func encodeBoundary(buf []byte, iteration int, fr core.BoundaryFrame) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(iteration))
	buf = binary.AppendUvarint(buf, uint64(fr.Part))
	buf = binary.AppendUvarint(buf, uint64(len(fr.States)))
	prev := int32(0)
	for _, s := range fr.States {
		buf = binary.AppendUvarint(buf, uint64(s.V-prev))
		prev = s.V
		packed := uint64(s.Level) << 2
		if s.Joined {
			packed |= 2
		}
		if s.Raise {
			packed |= 1
		}
		buf = binary.AppendUvarint(buf, packed)
	}
	return buf
}

// decodeBoundary unpacks encodeBoundary's format. It caps the declared
// count against the remaining payload size so corrupt counts cannot force
// huge allocations.
func decodeBoundary(payload []byte) (iteration int, fr core.BoundaryFrame, err error) {
	r := uvarintReader{buf: payload}
	it := r.next()
	part := r.next()
	count := r.next()
	if r.err != nil {
		return 0, fr, fmt.Errorf("%w: boundary header", ErrBadFrame)
	}
	if it > math.MaxInt32 || part > math.MaxInt32 {
		return 0, fr, fmt.Errorf("%w: boundary header out of range", ErrBadFrame)
	}
	// Each state needs at least two payload bytes.
	if count > uint64(len(r.buf)-r.off)/2+1 {
		return 0, fr, fmt.Errorf("%w: boundary count %d exceeds payload", ErrBadFrame, count)
	}
	fr.Part = int(part)
	if count > 0 {
		fr.States = make([]core.BoundaryState, 0, count)
	}
	v := int64(0)
	for i := uint64(0); i < count; i++ {
		dv := r.next()
		packed := r.next()
		if r.err != nil {
			return 0, fr, fmt.Errorf("%w: boundary state %d", ErrBadFrame, i)
		}
		v += int64(dv)
		level := packed >> 2
		if v > math.MaxInt32 || level > math.MaxInt32 {
			return 0, fr, fmt.Errorf("%w: boundary state %d out of range", ErrBadFrame, i)
		}
		fr.States = append(fr.States, core.BoundaryState{
			V:      int32(v),
			Level:  int32(level),
			Joined: packed&2 != 0,
			Raise:  packed&1 != 0,
		})
	}
	if r.off != len(r.buf) {
		return 0, fr, fmt.Errorf("%w: %d trailing boundary bytes", ErrBadFrame, len(r.buf)-r.off)
	}
	return int(it), fr, nil
}

// encodeCombinedBoundary concatenates every partition's boundary payload:
//
//	uvarint iteration | uvarint nparts | nparts × (uvarint len | payload)
func encodeCombinedBoundary(buf []byte, iteration int, payloads [][]byte) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(iteration))
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeCombinedBoundary unpacks encodeCombinedBoundary and decodes each
// sub-frame.
func decodeCombinedBoundary(payload []byte) (iteration int, frames []core.BoundaryFrame, err error) {
	r := uvarintReader{buf: payload}
	it := r.next()
	nparts := r.next()
	if r.err != nil || it > math.MaxInt32 {
		return 0, nil, fmt.Errorf("%w: combined boundary header", ErrBadFrame)
	}
	if nparts > uint64(len(r.buf)-r.off)+1 {
		return 0, nil, fmt.Errorf("%w: combined boundary count %d", ErrBadFrame, nparts)
	}
	frames = make([]core.BoundaryFrame, 0, nparts)
	for i := uint64(0); i < nparts; i++ {
		size := r.next()
		if r.err != nil || size > uint64(len(r.buf)-r.off) {
			return 0, nil, fmt.Errorf("%w: combined boundary part %d", ErrBadFrame, i)
		}
		sub := r.buf[r.off : r.off+int(size)]
		r.off += int(size)
		subIt, fr, err := decodeBoundary(sub)
		if err != nil {
			return 0, nil, err
		}
		if subIt != int(it) {
			return 0, nil, fmt.Errorf("%w: part %d iteration %d inside combined %d", ErrBadFrame, i, subIt, it)
		}
		frames = append(frames, fr)
	}
	if r.off != len(r.buf) {
		return 0, nil, fmt.Errorf("%w: trailing combined boundary bytes", ErrBadFrame)
	}
	return int(it), frames, nil
}

// encodeCoverage packs a peer's per-iteration owned-coverage count; the
// same encoding carries the coordinator's combined total back.
func encodeCoverage(buf []byte, iteration, covered int) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(iteration))
	buf = binary.AppendUvarint(buf, uint64(covered))
	return buf
}

// decodeCoverage unpacks encodeCoverage.
func decodeCoverage(payload []byte) (iteration, covered int, err error) {
	r := uvarintReader{buf: payload}
	it := r.next()
	cov := r.next()
	if r.err != nil || r.off != len(r.buf) || it > math.MaxInt32 || cov > math.MaxInt32 {
		return 0, 0, fmt.Errorf("%w: coverage frame", ErrBadFrame)
	}
	return int(it), int(cov), nil
}

// uvarintReader sequences binary.Uvarint reads with sticky errors.
type uvarintReader struct {
	buf []byte
	off int
	err error
}

func (r *uvarintReader) next() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrBadFrame
		return 0
	}
	r.off += n
	return v
}

// EncodeBoundaryFrame exposes the per-iteration boundary codec (appending
// into buf[:0], which may be nil). It exists for the benchmark harness's
// allocation gate and for alternative peer implementations; the solver path
// uses the unexported form directly.
func EncodeBoundaryFrame(buf []byte, iteration int, fr core.BoundaryFrame) []byte {
	return encodeBoundary(buf, iteration, fr)
}

// DecodeBoundaryFrame is the inverse of EncodeBoundaryFrame.
func DecodeBoundaryFrame(payload []byte) (iteration int, fr core.BoundaryFrame, err error) {
	return decodeBoundary(payload)
}

// partialToFrame converts a PartialResult for the wire.
func partialToFrame(p *core.PartialResult) resultFrame {
	fr := resultFrame{
		Part:        p.Part,
		Iterations:  p.Iterations,
		MaxLevel:    p.MaxLevel,
		CoverWeight: p.CoverWeight,
		DualEdges:   p.DualEdges,
		DualValues:  p.DualValues,
		Z:           p.Z,
		Alpha:       p.Alpha,
		Epsilon:     p.Epsilon,
	}
	for _, v := range p.Cover {
		fr.Cover = append(fr.Cover, int32(v))
	}
	return fr
}

// frameToPartial converts a received resultFrame back.
func frameToPartial(fr resultFrame) *core.PartialResult {
	p := &core.PartialResult{
		Part:        fr.Part,
		Iterations:  fr.Iterations,
		MaxLevel:    fr.MaxLevel,
		CoverWeight: fr.CoverWeight,
		DualEdges:   fr.DualEdges,
		DualValues:  fr.DualValues,
		Z:           fr.Z,
		Alpha:       fr.Alpha,
		Epsilon:     fr.Epsilon,
	}
	for _, v := range fr.Cover {
		p.Cover = append(p.Cover, hypergraph.VertexID(v))
	}
	return p
}
