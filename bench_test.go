package distcover

import (
	"os"
	"sync"
	"testing"

	"distcover/internal/bench"
	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// Every table and figure-equivalent experiment of the paper has one
// benchmark here; running `go test -bench=.` regenerates them all (in
// quick mode — cmd/benchharness runs the full sweeps) and prints each table
// once to stdout alongside the usual ns/op numbers.

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Quick: true, Seed: 42}
	for i := 0; i < b.N; i++ {
		tables, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			for _, t := range tables {
				t.Fprint(os.Stdout)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B)        { benchExperiment(b, "T1") }  // Table 1: MWVC algorithms
func BenchmarkTable2(b *testing.B)        { benchExperiment(b, "T2") }  // Table 2: MWHVC algorithms
func BenchmarkRoundsVsDelta(b *testing.B) { benchExperiment(b, "E1") }  // Theorem 9 shape
func BenchmarkRoundsVsW(b *testing.B)     { benchExperiment(b, "E2") }  // weight independence
func BenchmarkApproxRatio(b *testing.B)   { benchExperiment(b, "E3") }  // Corollary 3
func BenchmarkFApprox(b *testing.B)       { benchExperiment(b, "E4") }  // Corollary 10
func BenchmarkILP(b *testing.B)           { benchExperiment(b, "E5") }  // Theorem 19 pipeline
func BenchmarkVariant(b *testing.B)       { benchExperiment(b, "E6") }  // Appendix C
func BenchmarkAlphaAblation(b *testing.B) { benchExperiment(b, "E7") }  // Theorem 8 ablation
func BenchmarkMessageSize(b *testing.B)   { benchExperiment(b, "E8") }  // CONGEST conformance
func BenchmarkEpsilonRange(b *testing.B)  { benchExperiment(b, "E9") }  // Corollaries 11–12
func BenchmarkLocalAlpha(b *testing.B)    { benchExperiment(b, "E10") } // Theorem 9 remark

// Micro-benchmarks of the solver itself at increasing scale; rounds are
// reported as a custom metric so the flat-in-n behaviour is visible in the
// benchmark output.
func BenchmarkSolveScale(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		g, err := hypergraph.RegularLike(n, 10, 3, hypergraph.GenConfig{
			Seed: int64(n), Dist: hypergraph.WeightExponential, MaxWeight: 1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("n="+itoa(n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.DefaultOptions(), nil, 1)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkCongestProtocol measures the full message-passing execution.
func BenchmarkCongestProtocol(b *testing.B) {
	g, err := hypergraph.RegularLike(2_000, 8, 3, hypergraph.GenConfig{
		Seed: 1, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []struct {
		name string
		eng  congest.Engine
	}{
		{"sequential", congest.SequentialEngine{}},
		{"sharded", congest.ShardedEngine{}},
	} {
		b.Run(engine.name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				_, metrics, err := core.RunCongest(g, core.DefaultOptions(), nil, engine.eng, congest.Options{})
				if err != nil {
					b.Fatal(err)
				}
				msgs = metrics.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkMillionNodeEngines is the tentpole scale benchmark: the full
// cover protocol on a CONGEST network of one million nodes (400k vertices +
// 600k edge nodes, ~2.4M links), sharded vs the sequential reference. A run
// takes tens of seconds, so it only runs when explicitly requested;
// BENCH_baseline.json pins its committed readings (generated by
// `benchharness -writebaseline`).
func BenchmarkMillionNodeEngines(b *testing.B) {
	if os.Getenv("DISTCOVER_BENCH_LARGE") == "" {
		b.Skip("set DISTCOVER_BENCH_LARGE=1 to run the million-node benchmark")
	}
	g, err := hypergraph.RegularLike(400_000, 6, 4, hypergraph.GenConfig{
		Seed: 42, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []struct {
		name string
		eng  congest.Engine
	}{
		{"sharded", congest.ShardedEngine{}},
		{"sequential", congest.SequentialEngine{}},
	} {
		b.Run(engine.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RunCongest(g, core.DefaultOptions(), nil, engine.eng, congest.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactArithmetic quantifies the cost of the big.Rat verification
// mode relative to float64.
func BenchmarkExactArithmetic(b *testing.B) {
	g, err := hypergraph.UniformRandom(200, 400, 3, hypergraph.GenConfig{
		Seed: 1, Dist: hypergraph.WeightUniformRange, MaxWeight: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, exact := range []bool{false, true} {
		name := "float64"
		if exact {
			name = "bigrat"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Exact = exact
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, opts, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
