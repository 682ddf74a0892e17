// Multi-process cover cluster walkthrough: an instance is partitioned into
// contiguous CSR vertex ranges across three cluster peers, each peer runs
// the solver over its range, and only boundary-vertex levels plus
// join/raise flags cross the wire between iterations — yet the result is
// bit-identical to a single-process Solve, certificate and all.
// A session then streams delta batches: every update ships only the
// residual instance (the session-delta JSON shape) to the peers, so update
// traffic scales with the batch, not the accumulated instance.
//
// The peers here run in-process on loopback listeners to keep the example
// self-contained; operationally each one is a coverd process started with
// -peer-listen, and the coordinator is any coverd started with -peers (or
// any program calling distcover.ClusterSolve).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"

	"distcover"
	"distcover/internal/cluster"
)

func main() {
	// Three cluster peers on ephemeral loopback ports.
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		p := cluster.NewPeer()
		go p.Serve(ln)
		defer p.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	fmt.Println("peers:", addrs)

	// A random rank-3 instance.
	const n, m = 5000, 12000
	rng := rand.New(rand.NewSource(14))
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1 + rng.Int63n(100)
	}
	edges := make([][]int, m)
	for e := range edges {
		edges[e] = []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		log.Fatal(err)
	}

	// Solve across the cluster and in one process on every core.
	clusterSol, err := distcover.ClusterSolve(inst, addrs)
	if err != nil {
		log.Fatal(err)
	}
	flatSol, err := distcover.Solve(inst, distcover.WithSolverParallelism(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: |C|=%d weight=%d ratio≤%.3f iterations=%d\n",
		len(clusterSol.Cover), clusterSol.Weight, clusterSol.RatioBound, clusterSol.Iterations)
	fmt.Printf("flat:    |C|=%d weight=%d ratio≤%.3f iterations=%d\n",
		len(flatSol.Cover), flatSol.Weight, flatSol.RatioBound, flatSol.Iterations)
	if clusterSol.Weight != flatSol.Weight || clusterSol.DualLowerBound != flatSol.DualLowerBound {
		log.Fatal("cluster and flat diverged — this is a bug")
	}
	fmt.Println("bit-identical: yes")

	// Stream updates through a cluster session: only residual deltas cross
	// the wire per batch.
	sess, err := distcover.NewSession(inst, distcover.WithClusterPeers(addrs...))
	if err != nil {
		log.Fatal(err)
	}
	for batch := 1; batch <= 3; batch++ {
		var d distcover.Delta
		for i := 0; i < 500; i++ {
			d.Edges = append(d.Edges, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})
		}
		st, err := sess.Update(d)
		if err != nil {
			log.Fatal(err)
		}
		sol := sess.Solution()
		fmt.Printf("batch %d: +%d edges, %d covered on arrival, residual %d, joined %d; weight=%d ratio≤%.3f (certificate %.2f)\n",
			batch, st.NewEdges, st.CoveredOnArrival, st.ResidualEdges, st.Joined,
			sol.Weight, sol.RatioBound, sess.CertifiedBound())
	}
}
