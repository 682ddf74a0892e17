package bench

import (
	"fmt"

	"distcover/internal/baseline"
	"distcover/internal/baseline/kmw"
	"distcover/internal/baseline/kvy"
	"distcover/internal/baseline/ky"
	"distcover/internal/baseline/local"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/lp"
)

// algoRun is one algorithm's measured outcome on one workload.
type algoRun struct {
	rounds int
	ratio  float64 // cover weight / dual lower bound
	weight int64
}

// runAlgo dispatches by algorithm key. The dual lower bound used for the
// ratio is the algorithm's own certificate when it produces one, else the
// centralized greedy dual bound.
func runAlgo(key string, g *hypergraph.Hypergraph) (algoRun, error) {
	ratioOf := func(w int64, dual float64) float64 {
		if dual <= 0 {
			return 1
		}
		return float64(w) / dual
	}
	switch key {
	case "this work (f+ε, ε=1)", "this work (2+ε, ε=1)":
		res, err := core.Run(g, core.DefaultOptions(), nil)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: res.RatioBound, weight: res.CoverWeight}, nil
	case "this work (f+ε, ε=0.1)", "this work (2+ε, ε=0.1)":
		opts := core.DefaultOptions()
		opts.Epsilon = 0.1
		res, err := core.Run(g, opts, nil)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: res.RatioBound, weight: res.CoverWeight}, nil
	case "this work (f-approx)", "this work (2-approx)":
		opts := core.DefaultOptions()
		opts.FApprox = true
		res, err := core.Run(g, opts, nil)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: res.RatioBound, weight: res.CoverWeight}, nil
	case "KVY [15] (f+ε, ε=1)":
		res, err := kvy.Run(g, 1)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: ratioOf(res.CoverWeight, res.DualValue), weight: res.CoverWeight}, nil
	case "KY [16]-style (rand, f+ε, ε=1)":
		res, err := ky.Run(g, 1, 12345)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: ratioOf(res.CoverWeight, res.DualValue), weight: res.CoverWeight}, nil
	case "KMW [18]-style (f+ε, ε=1)":
		res, err := kmw.Run(g, 1)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{rounds: res.Rounds, ratio: ratioOf(res.CoverWeight, res.DualValue), weight: res.CoverWeight}, nil
	case "Åstrand-Suomela [2]-style (f)":
		res := local.Run(g)
		return algoRun{rounds: res.Rounds, ratio: ratioOf(res.CoverWeight, res.DualValue), weight: res.CoverWeight}, nil
	case "Bar-Yehuda-Even (seq, f)":
		res := baseline.BarYehudaEven(g)
		return algoRun{rounds: 0, ratio: ratioOf(res.CoverWeight, res.DualValue), weight: res.CoverWeight}, nil
	case "greedy (seq, H_m)":
		res := baseline.Greedy(g)
		lb := lp.GreedyDualBound(g)
		return algoRun{rounds: 0, ratio: ratioOf(res.CoverWeight, lb), weight: res.CoverWeight}, nil
	default:
		return algoRun{}, fmt.Errorf("bench: unknown algorithm %q", key)
	}
}

// coverTable renders one table row per algorithm: guarantee, rounds per
// workload, and the worst measured ratio.
func coverTable(id, title string, algos []struct{ key, guarantee string }, loads []workload) (Table, error) {
	t := Table{ID: id, Title: title}
	t.Header = append(t.Header, "algorithm", "guarantee")
	for _, l := range loads {
		t.Header = append(t.Header, "rounds@"+l.name)
	}
	t.Header = append(t.Header, "max ratio")
	for _, a := range algos {
		row := []string{a.key, a.guarantee}
		maxRatio := 0.0
		for _, l := range loads {
			run, err := runAlgo(a.key, l.g)
			if err != nil {
				return t, fmt.Errorf("%s on %s: %w", a.key, l.name, err)
			}
			if run.rounds > 0 {
				row = append(row, fmtI(run.rounds))
			} else {
				row = append(row, "-")
			}
			if run.ratio > maxRatio {
				maxRatio = run.ratio
			}
		}
		row = append(row, fmtF(maxRatio))
		t.AddRow(row...)
	}
	return t, nil
}

// Table1 regenerates Table 1 (MWVC, f = 2): measured rounds and certified
// ratios for this work against the baseline families the paper cites, on
// random bounded-degree graphs with exponentially spread weights.
func Table1(cfg Config) ([]Table, error) {
	sizes := pick(cfg, []int{2_000, 20_000, 100_000}, []int{300, 1_200})
	loads, err := graphFamily(sizes, 10, 2, hypergraph.WeightExponential, 1<<16, cfg.Seed)
	if err != nil {
		return nil, err
	}
	algos := []struct{ key, guarantee string }{
		{"this work (2+ε, ε=1)", "2+ε"},
		{"this work (2+ε, ε=0.1)", "2+ε"},
		{"this work (2-approx)", "2"},
		{"KVY [15] (f+ε, ε=1)", "2+ε"},
		{"KY [16]-style (rand, f+ε, ε=1)", "2+ε (rand)"},
		{"KMW [18]-style (f+ε, ε=1)", "2+ε"},
		{"Åstrand-Suomela [2]-style (f)", "2"},
		{"Bar-Yehuda-Even (seq, f)", "2 (seq)"},
		{"greedy (seq, H_m)", "ln m (seq)"},
	}
	t, err := coverTable("T1", "distributed MWVC (f=2), d≈10, W=2^16", algos, loads)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper's shape: this work's rounds are flat in n and W; KVY grows with n, KMW with W",
		"ratio column certifies w(C)/Σδ — must stay ≤ guarantee",
	)
	return []Table{t}, nil
}

// Table2 regenerates Table 2 (MWHVC, general f).
func Table2(cfg Config) ([]Table, error) {
	fs := pick(cfg, []int{3, 5}, []int{3})
	sizes := pick(cfg, []int{2_000, 20_000}, []int{400})
	algos := []struct{ key, guarantee string }{
		{"this work (f+ε, ε=1)", "f+ε"},
		{"this work (f+ε, ε=0.1)", "f+ε"},
		{"this work (f-approx)", "f"},
		{"KVY [15] (f+ε, ε=1)", "f+ε"},
		{"KMW [18]-style (f+ε, ε=1)", "f+ε"},
		{"Åstrand-Suomela [2]-style (f)", "f"},
	}
	var out []Table
	for _, f := range fs {
		loads, err := graphFamily(sizes, 3*f, f, hypergraph.WeightExponential, 1<<16, cfg.Seed+int64(f))
		if err != nil {
			return nil, err
		}
		t, err := coverTable("T2", fmt.Sprintf("distributed MWHVC, f=%d, d≈%d, W=2^16", f, 3*f), algos, loads)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("guarantee check: every ratio ≤ f+ε = %d+ε", f))
		out = append(out, t)
	}
	return out, nil
}
