package sessions

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"distcover/internal/bench"
	"distcover/internal/cluster"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// relayHandshakeDelay is the artificial per-connection latency the E16
// peers inject before their first write (the hello reply). Real networks
// charge connection setup per peer dial; injecting it before the first
// write makes the cost deterministic on loopback, so the experiment
// measures exactly what the concurrent fan-out relay parallelizes — peer
// dial/handshake — rather than scheduler noise.
const relayHandshakeDelay = 10 * time.Millisecond

// delayedConn sleeps once before the first Write on the connection.
type delayedConn struct {
	net.Conn
	once sync.Once
}

func (c *delayedConn) Write(p []byte) (int, error) {
	c.once.Do(func() { time.Sleep(relayHandshakeDelay) })
	return c.Conn.Write(p)
}

// delayedListener wraps every accepted connection in a delayedConn.
type delayedListener struct{ net.Listener }

func (l *delayedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &delayedConn{Conn: conn}, nil
}

// startLatencyPeers launches n loopback cluster peers behind first-write
// latency injection.
func startLatencyPeers(n int) (addrs []string, closeAll func(), err error) {
	var peers []*cluster.Peer
	closeAll = func() {
		for _, p := range peers {
			p.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		p := cluster.NewPeer()
		go p.Serve(&delayedListener{Listener: ln})
		peers = append(peers, p)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, closeAll, nil
}

// MeasureRelay runs the E16 workload: the fan-out relay at 1, 2 and 4
// partitions over two latency-injected loopback peers. The relay dials the
// peers concurrently and multiplexes co-located partitions onto one
// connection, so it pays the handshake delay about once whatever the
// partition count; a relay that handshook its four partitions one after
// another would pay it four times. That difference is the suite's
// in-code floor: it fails when the 4-partition solve costs at least
// 3 × relayHandshakeDelay more than the 1-partition solve. Every reading
// is taken only after bit-identity with the single-process flat engine is
// verified.
func MeasureRelay(cfg bench.Config) ([]bench.Measurement, []bench.Table, error) {
	mode := pick(cfg, "full", "quick")
	name := pick(cfg, "relay-8k", "relay-2k")
	n := pick(cfg, 8_000, 2_000)
	m := pick(cfg, 16_000, 4_000)

	g, err := hypergraph.UniformRandom(n, m, 3, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: relay workload: %w", err)
	}
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, nil, 0)
	if err != nil {
		return nil, nil, err
	}

	peers, closePeers, err := startLatencyPeers(2)
	if err != nil {
		return nil, nil, err
	}
	defer closePeers()

	check := func(label string, got *core.Result) error {
		if !reflect.DeepEqual(got.Cover, want.Cover) || got.CoverWeight != want.CoverWeight ||
			got.DualValue != want.DualValue || got.Iterations != want.Iterations {
			return fmt.Errorf("bench: relay %s diverges from flat", label)
		}
		return nil
	}

	// Warm the peer instance caches so every reading runs hash-hit setups:
	// the measured cost is then the connection handshakes and the solve,
	// not a JSON transfer that only the first reading pays.
	warm, err := cluster.Solve(g, opts, nil, cluster.Config{Peers: peers, Partitions: 4})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: relay warmup: %w", err)
	}
	if err := check("warmup", warm); err != nil {
		return nil, nil, err
	}

	t := bench.Table{
		ID:     "E16",
		Title:  "Relay concurrency: fan-out relay under per-connection handshake latency",
		Header: []string{"partitions", "fan-out ms", "over 1p ms"},
	}

	prefix := mode + "/" + name
	partCounts := []int{1, 2, 4}
	// Best of three interleaved readings per partition count: one slow
	// 1-partition reading would otherwise shrink the 4p − 1p difference
	// the floor below checks.
	elapsed := map[int]time.Duration{}
	for rep := 0; rep < 3; rep++ {
		for _, parts := range partCounts {
			start := time.Now()
			got, err := cluster.Solve(g, opts, nil, cluster.Config{Peers: peers, Partitions: parts})
			d := time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: fan-out %dp: %w", parts, err)
			}
			if err := check(fmt.Sprintf("fan-out %dp", parts), got); err != nil {
				return nil, nil, err
			}
			if best, ok := elapsed[parts]; !ok || d < best {
				elapsed[parts] = d
			}
		}
	}
	var ms []bench.Measurement
	for _, parts := range partCounts {
		d := elapsed[parts]
		ms = append(ms, bench.Measurement{
			Name: fmt.Sprintf("%s/fanout-%dp/ns", prefix, parts), Value: float64(d.Nanoseconds()),
			Unit: "ns", Tolerance: 0.75,
		})
		t.AddRow(fmt.Sprintf("%d", parts),
			fmt.Sprintf("%.1f", d.Seconds()*1000),
			fmt.Sprintf("%.1f", (d-elapsed[1]).Seconds()*1000))
	}
	// The relay's reason to exist: four partitions must not pay the
	// handshake delay once each. Handshaking them one after another costs
	// at least three delays more than one partition does, so that is the
	// floor; the check needs no second relay to compare against.
	if extra := elapsed[4] - elapsed[1]; extra >= 3*relayHandshakeDelay {
		return nil, nil, fmt.Errorf("bench: fan-out relay at 4 partitions took %v longer than at 1 (floor %v) — its handshakes no longer overlap",
			extra, 3*relayHandshakeDelay)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peers inject %v before each connection's first write; the fan-out relay dials peers concurrently and multiplexes co-located partitions, so it pays the delay about once", relayHandshakeDelay),
		fmt.Sprintf("floor: fanout-4p − fanout-1p < 3 × %v (what four handshakes in a row would add)", relayHandshakeDelay),
		"every reading is taken only after bit-identity with the flat engine is verified",
	)
	return ms, []bench.Table{t}, nil
}

// RelayExperiment is the experiment adapter for MeasureRelay (E16).
func RelayExperiment(cfg bench.Config) ([]bench.Table, error) {
	_, tables, err := MeasureRelay(cfg)
	return tables, err
}
