package sessions

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"distcover"
	"distcover/internal/bench"
	"distcover/internal/cluster"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// MeasureCluster runs the E14 workload: one instance solved as a
// multi-process cover cluster at 2 and 4 partitions over loopback TCP
// peers, plus one incremental delta batch through a cluster session,
// against the single-process flat engine as the reference. Every cluster
// result is required to be bit-identical to the flat result before any
// timing is reported — cluster numbers for wrong answers are worthless.
// The deterministic readings (iteration count, residual edge count) are
// committed exactly; wall-clock entries carry the wide machine band, and
// the loopback peers mean the timings measure protocol overhead, not
// network distance.
func MeasureCluster(cfg bench.Config) ([]bench.Measurement, []bench.Table, error) {
	mode := pick(cfg, "full", "quick")
	name := pick(cfg, "cluster-100k", "cluster-10k")
	n := pick(cfg, 100_000, 10_000)
	baseM := pick(cfg, 200_000, 20_000)
	batchEdges := pick(cfg, 1_000, 200)

	g, err := hypergraph.UniformRandom(n, baseM, 3, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: cluster workload: %w", err)
	}
	inst, err := toInstance(g)
	if err != nil {
		return nil, nil, err
	}

	peers, closePeers, err := startBenchPeers(4)
	if err != nil {
		return nil, nil, err
	}
	defer closePeers()

	t := bench.Table{
		ID:     "E14",
		Title:  "Multi-process cover cluster vs single-process flat engine",
		Header: []string{"path", "ms", "vs flat", "identical"},
	}

	flatStart := time.Now()
	want, err := distcover.Solve(inst, distcover.WithSolverParallelism(0))
	flatD := time.Since(flatStart)
	if err != nil {
		return nil, nil, err
	}

	prefix := mode + "/" + name
	ms := []bench.Measurement{
		{Name: prefix + "/flat/ns", Value: float64(flatD.Nanoseconds()), Unit: "ns", Tolerance: 0.75},
		// Deterministic for a fixed seed; exact across machines.
		{Name: prefix + "/iterations", Value: float64(want.Iterations), Unit: "iters", Tolerance: 0.001},
	}
	t.AddRow("flat (1 process)", fmt.Sprintf("%.1f", flatD.Seconds()*1000), "1.00x", "—")

	for _, parts := range []int{2, 4} {
		start := time.Now()
		got, err := distcover.ClusterSolve(inst, peers[:parts], distcover.WithClusterPartitions(parts))
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: cluster solve %dp: %w", parts, err)
		}
		if !sameSolution(got, want) {
			return nil, nil, fmt.Errorf("bench: cluster solve %dp diverges from flat", parts)
		}
		ms = append(ms, bench.Measurement{
			Name: fmt.Sprintf("%s/solve-%dp/ns", prefix, parts), Value: float64(d.Nanoseconds()),
			Unit: "ns", Tolerance: 0.75,
		})
		t.AddRow(fmt.Sprintf("cluster %d partitions", parts),
			fmt.Sprintf("%.1f", d.Seconds()*1000),
			fmt.Sprintf("%.2fx", d.Seconds()/flatD.Seconds()), "yes")
	}

	// Incremental: one delta batch through a 2-partition cluster session
	// vs the same batch through a flat session.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var d distcover.Delta
	for i := 0; i < batchEdges; i++ {
		d.Edges = append(d.Edges, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})
	}
	clusterSess, err := distcover.NewSession(inst,
		distcover.WithClusterPeers(peers[:2]...), distcover.WithClusterPartitions(2))
	if err != nil {
		return nil, nil, err
	}
	flatSess, err := distcover.NewSession(inst, distcover.WithSolverParallelism(0))
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	cst, err := clusterSess.Update(d)
	clusterUpD := time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: cluster update: %w", err)
	}
	start = time.Now()
	fst, err := flatSess.Update(d)
	flatUpD := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	if cst.ResidualEdges != fst.ResidualEdges || cst.Iterations != fst.Iterations {
		return nil, nil, fmt.Errorf("bench: cluster update stats diverge from flat")
	}
	csol, fsol := clusterSess.Solution(), flatSess.Solution()
	if csol.Weight != fsol.Weight || csol.DualLowerBound != fsol.DualLowerBound {
		return nil, nil, fmt.Errorf("bench: cluster session diverges from flat session")
	}
	if csol.RatioBound > clusterSess.CertifiedBound()*(1+1e-9) {
		return nil, nil, fmt.Errorf("bench: cluster session breaks its certificate")
	}
	ms = append(ms,
		bench.Measurement{Name: prefix + "/update-2p/ns", Value: float64(clusterUpD.Nanoseconds()), Unit: "ns", Tolerance: 0.75},
		bench.Measurement{Name: prefix + "/update-residual-edges", Value: float64(cst.ResidualEdges), Unit: "edges", Tolerance: 0.001},
	)
	t.AddRow("session update (flat)", fmt.Sprintf("%.1f", flatUpD.Seconds()*1000), "—", "—")
	t.AddRow("session update (cluster 2p)", fmt.Sprintf("%.1f", clusterUpD.Seconds()*1000), "—", "yes")
	t.Notes = append(t.Notes,
		"peers are loopback TCP processes-in-miniature: the gap to flat is pure protocol overhead, the upper bound of what real network distance adds",
		"every cluster reading is taken only after bit-identity with the flat engine is verified",
	)

	allocMS, err := clusterCodecAllocs()
	if err != nil {
		return nil, nil, err
	}
	ms = append(ms, allocMS...)
	return ms, []bench.Table{t}, nil
}

// clusterCodecAllocs counts heap allocations of the per-round boundary
// codec — the only work on the cluster hot path that runs once per peer per
// iteration regardless of instance size. The counts are properties of the
// code, gated exactly by the -portable comparator like the other allocs/*
// entries.
func clusterCodecAllocs() ([]bench.Measurement, error) {
	frame := core.BoundaryFrame{Part: 1}
	for v := int32(0); v < 256; v++ {
		frame.States = append(frame.States, core.BoundaryState{
			V: v * 3, Level: v % 7, Joined: v%5 == 0, Raise: v%2 == 0,
		})
	}
	var buf []byte
	encAllocs := testing.AllocsPerRun(100, func() {
		buf = cluster.EncodeBoundaryFrame(buf, 3, frame)
	})
	payload := cluster.EncodeBoundaryFrame(nil, 3, frame)
	decAllocs := testing.AllocsPerRun(100, func() {
		if _, _, err := cluster.DecodeBoundaryFrame(payload); err != nil {
			panic(err)
		}
	})
	return []bench.Measurement{
		{Name: "allocs/cluster/encode-round", Value: encAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/cluster/decode-round", Value: decAllocs, Unit: "allocs", Tolerance: 0.001},
	}, nil
}

// sameSolution checks the fields the bit-identity claim covers.
func sameSolution(a, b *distcover.Solution) bool {
	if len(a.Cover) != len(b.Cover) {
		return false
	}
	for i := range a.Cover {
		if a.Cover[i] != b.Cover[i] {
			return false
		}
	}
	return a.Weight == b.Weight && a.DualLowerBound == b.DualLowerBound &&
		a.Iterations == b.Iterations && a.Rounds == b.Rounds && a.MaxLevel == b.MaxLevel
}

// startBenchPeers launches n loopback cluster peers.
func startBenchPeers(n int) (addrs []string, closeAll func(), err error) {
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
		go p.Serve(ln)
		peers = append(peers, p)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, closeAll, nil
}

// ClusterExperiment is the experiment adapter for MeasureCluster (E14).
func ClusterExperiment(cfg bench.Config) ([]bench.Table, error) {
	_, tables, err := MeasureCluster(cfg)
	return tables, err
}
