// Command covercli solves a weighted hypergraph vertex cover instance with
// the distributed covering algorithm and prints the cover, its certificate
// and the measured distributed complexity.
//
// The instance is JSON: {"weights":[w0,...],"edges":[[v,...],...]}.
//
// Usage:
//
//	covercli [-in file] [-eps ε] [-f-approx] [-single-level] [-local-alpha]
//	         [-alpha α] [-exact] [-flat [-par P]]
//	         [-congest] [-sharded [-shards P]]
//	         [-tcp] [-json] [-trace] [-compare] [-exact-opt]
//	covercli -gen kind -n N [-m M] [-f F] [-maxw W] [-seed S]
//
// -flat runs the chunk-parallel flat solver (one worker per core, or -par
// workers): the fastest way to just get the cover, with results
// bit-identical to the default simulator. With -congest the real Appendix B
// message protocol runs on a simulated CONGEST network and the
// communication metrics are reported; the nodes step sequentially unless
// -sharded steps node shards on a fixed worker pool (the fast
// message-passing path for large instances) or -tcp moves the messages over
// real loopback sockets. -gen emits a synthetic instance as JSON instead of
// solving. -compare runs the paper's baselines next to the algorithm;
// -exact-opt audits small instances against a branch-and-bound optimum.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"distcover"
	"distcover/internal/lp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "covercli:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inPath      = flag.String("in", "-", "instance JSON path (- for stdin)")
		eps         = flag.Float64("eps", 1, "approximation slack ε ∈ (0,1]")
		fApprox     = flag.Bool("f-approx", false, "f-approximation mode (ε = 1/(nW))")
		singleLevel = flag.Bool("single-level", false, "Appendix C variant")
		localAlpha  = flag.Bool("local-alpha", false, "per-edge α from Δ(e)")
		alpha       = flag.Float64("alpha", 0, "fixed α ≥ 2 (0 = Theorem 9 choice)")
		exact       = flag.Bool("exact", false, "exact big.Rat arithmetic")
		flat        = flag.Bool("flat", false, "chunk-parallel flat solver (bit-identical, one worker per core)")
		par         = flag.Int("par", 0, "with -flat: worker count (0 = GOMAXPROCS)")
		congestRun  = flag.Bool("congest", false, "run the real CONGEST message protocol")
		sharded     = flag.Bool("sharded", false, "with -congest: fixed worker pool over node shards (large instances)")
		shards      = flag.Int("shards", 0, "with -sharded: shard count (0 = GOMAXPROCS)")
		tcp         = flag.Bool("tcp", false, "with -congest: nodes talk over TCP loopback")
		asJSON      = flag.Bool("json", false, "emit the result as JSON")
		trace       = flag.Bool("trace", false, "print per-iteration dynamics and the phase-timing telemetry report")
		compareRun  = flag.Bool("compare", false, "run the Table 1/2 baselines side by side")
		exactOpt    = flag.Bool("exact-opt", false, "audit against the exact optimum (small instances)")
		genKind     = flag.String("gen", "", "generate an instance instead of solving (uniform, regular, graph, star, lollipop, powerlaw, geompath)")
		genN        = flag.Int("n", 100, "with -gen: vertices (Δ for star/lollipop)")
		genM        = flag.Int("m", 200, "with -gen: edges")
		genF        = flag.Int("f", 3, "with -gen: rank")
		genMaxW     = flag.Int64("maxw", 100, "with -gen: max weight (heavy weight for star/lollipop)")
		genSeed     = flag.Int64("seed", 1, "with -gen: seed")
	)
	flag.Parse()

	if *genKind != "" {
		return generate(os.Stdout, *genKind, *genN, *genM, *genF, *genMaxW, *genSeed)
	}

	var in io.Reader = os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	inst, err := distcover.ReadInstance(in)
	if err != nil {
		return err
	}

	var opts []distcover.Option
	if *fApprox {
		opts = append(opts, distcover.WithFApproximation())
	} else {
		opts = append(opts, distcover.WithEpsilon(*eps))
	}
	if *singleLevel {
		opts = append(opts, distcover.WithSingleLevelVariant())
	}
	if *localAlpha {
		opts = append(opts, distcover.WithLocalAlpha())
	}
	if *alpha != 0 {
		opts = append(opts, distcover.WithFixedAlpha(*alpha))
	}
	if *exact {
		opts = append(opts, distcover.WithExactArithmetic())
	}
	// The engine flags are mutually exclusive; without a check the
	// last-applied option would silently win and a benchmark could measure
	// the wrong engine.
	if *sharded && *tcp {
		return fmt.Errorf("-sharded and -tcp are mutually exclusive")
	}
	if (*sharded || *tcp) && !*congestRun {
		return fmt.Errorf("-sharded and -tcp select a CONGEST engine and require -congest")
	}
	if *shards != 0 && !*sharded {
		return fmt.Errorf("-shards requires -sharded")
	}
	if *flat && *congestRun {
		return fmt.Errorf("-flat is the direct solver; it cannot be combined with -congest")
	}
	if *par != 0 && !*flat {
		return fmt.Errorf("-par requires -flat")
	}
	if *flat {
		opts = append(opts, distcover.WithFlatEngine(), distcover.WithSolverParallelism(*par))
	}
	if *sharded {
		opts = append(opts, distcover.WithShardedEngine(), distcover.WithShardCount(*shards))
	}
	if *tcp {
		opts = append(opts, distcover.WithTCPEngine())
	}
	var rec *distcover.TraceRecorder
	if *trace {
		rec = distcover.NewTraceRecorder("")
		opts = append(opts, distcover.WithTrace(), distcover.WithTelemetry(rec))
	}

	if *compareRun {
		return runCompare(inst, opts)
	}

	var (
		sol   *distcover.Solution
		stats *distcover.CongestStats
	)
	if *congestRun {
		sol, stats, err = distcover.SolveCongest(inst, opts...)
	} else {
		sol, err = distcover.Solve(inst, opts...)
	}
	if err != nil {
		return err
	}

	if *asJSON {
		out := struct {
			*distcover.Solution
			Congest *distcover.CongestStats `json:"congest,omitempty"`
			Report  *distcover.TraceReport  `json:"report,omitempty"`
		}{Solution: sol, Congest: stats}
		if rec != nil {
			out.Report = rec.Report()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	st := inst.Stats()
	fmt.Printf("instance: n=%d m=%d f=%d Δ=%d W=%d\n",
		st.Vertices, st.Edges, st.Rank, st.MaxDegree, st.WeightSpread)
	fmt.Printf("cover (%d vertices, weight %d): %v\n", len(sol.Cover), sol.Weight, sol.Cover)
	fmt.Printf("certificate: dual lower bound %.4f, ratio ≤ %.4f (guarantee f+ε = %d+%.3g)\n",
		sol.DualLowerBound, sol.RatioBound, st.Rank, sol.Epsilon)
	fmt.Printf("complexity: %d iterations, %d CONGEST rounds, max level %d/%d, α=%.3f\n",
		sol.Iterations, sol.Rounds, sol.MaxLevel, sol.LevelCap, sol.Alpha)
	if stats != nil {
		fmt.Printf("congest: %d rounds, %d messages, %d total bits, max message %d bits\n",
			stats.Rounds, stats.Messages, stats.TotalBits, stats.MaxMessageBits)
		if stats.WireBytes > 0 {
			fmt.Printf("wire: %d bytes over TCP\n", stats.WireBytes)
		}
	}
	if *trace {
		fmt.Println("iteration  joined  covered  level+  raised  stuck  active(v/e)")
		for _, it := range sol.Trace {
			fmt.Printf("%9d  %6d  %7d  %6d  %6d  %5d  %d/%d\n",
				it.Iteration, it.Joined, it.CoveredEdges, it.LevelIncrements,
				it.RaisedEdges, it.StuckVertices, it.ActiveVertices, it.ActiveEdges)
		}
		report, err := json.MarshalIndent(rec.Report(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("telemetry: %s\n", report)
	}
	if *exactOpt {
		if err := auditExact(inst, sol); err != nil {
			return err
		}
	}
	return nil
}

// runCompare prints the side-by-side baseline table.
func runCompare(inst *distcover.Instance, opts []distcover.Option) error {
	rows, err := distcover.Compare(inst, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("%-46s %-12s %10s %8s %7s\n", "algorithm", "guarantee", "weight", "ratio≤", "rounds")
	for _, r := range rows {
		rounds := "-"
		if r.Distributed {
			rounds = fmt.Sprintf("%d", r.Rounds)
		}
		fmt.Printf("%-46s %-12s %10d %8.3f %7s\n",
			r.Algorithm, r.Guarantee, r.Weight, r.CertifiedRatio, rounds)
	}
	return nil
}

// auditExact compares the solution against a branch-and-bound optimum.
func auditExact(inst *distcover.Instance, sol *distcover.Solution) error {
	var buf jsonBuffer
	if _, err := inst.WriteTo(&buf); err != nil {
		return err
	}
	g, err := readHypergraph(buf.data)
	if err != nil {
		return err
	}
	_, opt, err := lp.ExactCover(g, 0)
	if err != nil {
		return fmt.Errorf("exact solver: %w (instance too large for -exact-opt?)", err)
	}
	ratio := 1.0
	if opt > 0 {
		ratio = float64(sol.Weight) / float64(opt)
	}
	fmt.Printf("exact audit: OPT = %d, solution = %d, true ratio = %.4f\n", opt, sol.Weight, ratio)
	return nil
}
