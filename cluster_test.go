package distcover

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"distcover/internal/cluster"
)

// startClusterPeers launches n in-process cluster peers on 127.0.0.1:0 and
// returns their addresses; the listeners close on test cleanup.
func startClusterPeers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := cluster.NewPeer()
		go p.Serve(ln)
		t.Cleanup(func() { p.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestClusterEquivalenceProperty is the cross-process equivalence property
// test: over 50 random instances — plain graphs, f>2 hypergraphs across
// weight distributions, heavy-tail degree profiles, ILP-reduction outputs —
// at 1..4 partitions and varying ε, ClusterSolve over real TCP peers must
// return a Solution bit-identical to the single-process flat engine (and
// therefore to the simulator and every CONGEST engine).
func TestClusterEquivalenceProperty(t *testing.T) {
	addrs := startClusterPeers(t, 2)
	rng := rand.New(rand.NewSource(20260801))
	epss := []float64{1, 0.5, 0.125}
	for i := 0; i < 50; i++ {
		g := randomEquivalenceInstance(t, rng, i)
		inst := &Instance{g: g}
		eps := epss[i%len(epss)]
		want, err := Solve(inst, WithEpsilon(eps), WithSolverParallelism(2))
		if err != nil {
			t.Fatalf("instance %d: flat: %v", i, err)
		}
		parts := 1 + i%4
		got, err := ClusterSolve(inst, addrs, WithEpsilon(eps), WithClusterPartitions(parts))
		if err != nil {
			t.Fatalf("instance %d parts %d: cluster: %v", i, parts, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d parts %d: cluster solution diverges from flat:\n got %+v\nwant %+v",
				i, parts, got, want)
		}
		if got.RatioBound > float64(g.Rank())+eps+1e-9 {
			t.Fatalf("instance %d: certificate %g exceeds f+ε", i, got.RatioBound)
		}
	}
}

// TestClusterSessionEquivalenceProperty drives cluster sessions through
// random delta batches: after every batch the cluster session must match
// the flat session bit for bit (cover and dual lower bound), produce a
// valid cover of the grown instance, and stay within the f(1+ε) session
// certificate.
func TestClusterSessionEquivalenceProperty(t *testing.T) {
	addrs := startClusterPeers(t, 3)
	rng := rand.New(rand.NewSource(8088))
	for i := 0; i < 8; i++ {
		g := randomEquivalenceInstance(t, rng, i)
		inst := &Instance{g: g}
		ref, err := NewSession(inst, WithSolverParallelism(0))
		if err != nil {
			t.Fatalf("instance %d: flat session: %v", i, err)
		}
		parts := 2 + i%3
		cs, err := NewSession(inst, WithClusterPeers(addrs...), WithClusterPartitions(parts))
		if err != nil {
			t.Fatalf("instance %d: cluster session: %v", i, err)
		}
		cur := inst
		n := g.NumVertices()
		for batch := 0; batch < 4; batch++ {
			var d Delta
			d, n = randomDelta(rng, n)
			var errExt error
			cur, errExt = cur.Extend(d)
			if errExt != nil {
				t.Fatal(errExt)
			}
			if _, err := ref.Update(d); err != nil {
				t.Fatalf("instance %d batch %d: flat update: %v", i, batch, err)
			}
			if _, err := cs.Update(d); err != nil {
				t.Fatalf("instance %d batch %d: cluster update: %v", i, batch, err)
			}
			got, want := cs.Solution(), ref.Solution()
			if !reflect.DeepEqual(got.Cover, want.Cover) || got.DualLowerBound != want.DualLowerBound ||
				got.Weight != want.Weight {
				t.Fatalf("instance %d batch %d: cluster session diverges from flat session", i, batch)
			}
			if !cur.IsCover(got.Cover) {
				t.Fatalf("instance %d batch %d: cluster session cover invalid", i, batch)
			}
			if bound := cs.CertifiedBound(); got.RatioBound > bound*(1+1e-9) {
				t.Fatalf("instance %d batch %d: ratio %g exceeds certificate %g",
					i, batch, got.RatioBound, bound)
			}
			if cs.Hash() != cur.Hash() {
				t.Fatalf("instance %d batch %d: cluster session hash drifted", i, batch)
			}
		}
	}
}

// TestClusterSolveErrors covers the public typed errors.
func TestClusterSolveErrors(t *testing.T) {
	inst, err := NewInstance([]int64{1, 2}, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClusterSolve(nil, []string{"127.0.0.1:1"}); !errors.Is(err, ErrNilInstance) {
		t.Fatalf("nil instance: %v", err)
	}
	if _, err := ClusterSolve(inst, nil); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("no peers: %v", err)
	}
	// A dead address is a lost peer, typed through the public package.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := ClusterSolve(inst, []string{dead}); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("dead peer: %v", err)
	}
	// Solve and NewSession honour WithClusterPeers, and the error carries
	// one package prefix.
	if _, err := Solve(inst, WithClusterPeers(dead)); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Solve with dead peer: %v", err)
	}
	_, err = NewSession(inst, WithClusterPeers(dead))
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("NewSession with dead peer: %v", err)
	}
	if n := strings.Count(err.Error(), "distcover:"); n != 1 {
		t.Fatalf("NewSession error has %d distcover: prefixes: %v", n, err)
	}
}
