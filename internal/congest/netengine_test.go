package congest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// testCodec moves the test messages as a tag byte and 8 bytes: an intMsg
// value, or a bigMsg's reported size.
type testCodec struct{}

func (testCodec) Encode(m Message) ([]byte, error) {
	buf := make([]byte, 9)
	switch m := m.(type) {
	case intMsg:
		binary.BigEndian.PutUint64(buf[1:], uint64(m))
	case bigMsg:
		buf[0] = 1
		binary.BigEndian.PutUint64(buf[1:], uint64(m.bits))
	default:
		return nil, fmt.Errorf("testCodec: unexpected %T", m)
	}
	return buf, nil
}

func (testCodec) Decode(data []byte) (Message, error) {
	if len(data) != 9 {
		return nil, fmt.Errorf("testCodec: bad length %d", len(data))
	}
	v := binary.BigEndian.Uint64(data[1:])
	switch data[0] {
	case 0:
		return intMsg(v), nil
	case 1:
		return bigMsg{bits: int(v)}, nil
	}
	return nil, fmt.Errorf("testCodec: bad tag %d", data[0])
}

// flakyCodec fails every Decode after the first failAfter successes,
// simulating corruption mid-round.
type flakyCodec struct {
	testCodec
	failAfter int64
	decodes   atomic.Int64
}

var errFlaky = errors.New("flaky codec: simulated corruption")

func (c *flakyCodec) Decode(data []byte) (Message, error) {
	if c.decodes.Add(1) > c.failAfter {
		return nil, errFlaky
	}
	return c.testCodec.Decode(data)
}

// waitGoroutinesBack polls until the goroutine count returns to (about) the
// pre-test level; engine goroutines that outlive Run are leaks.
func waitGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge parked network goroutines
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNetEngineRunsBFS(t *testing.T) {
	const n = 8
	nw, nodes := buildPath(n)
	m, err := NetEngine{Codec: testCodec{}}.Run(nw, Options{Validate: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, node := range nodes {
		if node.dist != int64(i) {
			t.Errorf("node %d dist = %d, want %d", i, node.dist, i)
		}
	}
	if m.WireBytes == 0 {
		t.Error("WireBytes not recorded")
	}
}

// TestNetEngineDrainsGoroutinesOnCodecError is the regression test for the
// listener/node-goroutine leak: a codec error mid-round must close every
// connection and drain all node goroutines before Run returns to its
// caller's test, even with nodes parked mid-read. The error must be the
// codec's, whether the coordinator or a node goroutine hit it: a node that
// fails closes its socket, and the coordinator's EOF alone would hide why.
func TestNetEngineDrainsGoroutinesOnCodecError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, failAfter := range []int64{0, 1, 4, 5, 20} {
		const n = 10
		nw, _ := buildPath(n)
		codec := &flakyCodec{failAfter: failAfter}
		_, err := NetEngine{Codec: codec}.Run(nw, Options{Validate: true})
		if !errors.Is(err, errFlaky) {
			t.Errorf("failAfter=%d: err = %v, want the codec error", failAfter, err)
		}
	}
	waitGoroutinesBack(t, before)
}

// TestNetEngineNoLeakOnSuccess asserts the success path also leaves no
// engine goroutines behind.
func TestNetEngineNoLeakOnSuccess(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		nw, _ := buildPath(6)
		if _, err := (NetEngine{Codec: testCodec{}}).Run(nw, Options{}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	waitGoroutinesBack(t, before)
}

// TestNetEngineRoundLimitDrains covers the round-limit error path, which
// exits while every node is still connected and mid-protocol.
func TestNetEngineRoundLimitDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := NewNetwork()
	a := nw.AddNode(&chattyNode{peer: 1})
	b := nw.AddNode(&chattyNode{peer: 0})
	nw.MustConnect(a, b)
	_, err := NetEngine{Codec: testCodec{}}.Run(nw, Options{MaxRounds: 4})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	waitGoroutinesBack(t, before)
}

// chattyNode pings its peer forever.
type chattyNode struct{ peer NodeID }

func (c *chattyNode) Step(round int, _ []Envelope, out *Outbox) bool {
	out.Send(c.peer, intMsg(int64(round)))
	return false
}
