// Weighted vertex cover (f = 2) over the real CONGEST message protocol:
// every vertex and every edge of the conflict graph runs as a network node
// exchanging O(log n)-bit messages; the sharded engine steps the nodes in
// shards on a worker pool. The measured rounds illustrate the
// O(logΔ/loglogΔ) headline bound, and the run reports the exact
// communication cost.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distcover"
)

func main() {
	// A conflict graph: tasks are vertices (weight = migration cost),
	// edges join tasks that cannot share a host; a vertex cover is a set
	// of tasks to migrate so no conflict remains.
	const (
		nTasks    = 400
		nConflict = 1200
	)
	rng := rand.New(rand.NewSource(11))
	weights := make([]int64, nTasks)
	for i := range weights {
		weights[i] = 1 + rng.Int63n(1000)
	}
	seen := make(map[[2]int]bool)
	var edges [][]int
	for len(edges) < nConflict {
		a, b := rng.Intn(nTasks), rng.Intn(nTasks)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		edges = append(edges, []int{a, b})
	}

	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		log.Fatal(err)
	}
	st := inst.Stats()
	fmt.Printf("conflict graph: %d tasks, %d conflicts, Δ=%d, W=%d\n",
		st.Vertices, st.Edges, st.MaxDegree, st.WeightSpread)

	sol, stats, err := distcover.SolveCongest(inst,
		distcover.WithEpsilon(0.5),
		distcover.WithShardedEngine(), // node shards step on a worker pool
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrate %d tasks (cost %d), certified ≤ %.3f×OPT\n",
		len(sol.Cover), sol.Weight, sol.RatioBound)
	fmt.Printf("network: %d rounds, %d messages, %.1f KiB total, max message %d bits\n",
		stats.Rounds, stats.Messages, float64(stats.TotalBits)/8192, stats.MaxMessageBits)

	// The same instance without building the network (fast simulation path)
	// produces the identical cover.
	fast, err := distcover.Solve(inst, distcover.WithEpsilon(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast path agrees: weight %d in %d iterations\n", fast.Weight, fast.Iterations)
}
