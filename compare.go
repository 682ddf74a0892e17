package distcover

import (
	"fmt"

	"distcover/internal/baseline"
	"distcover/internal/baseline/kmw"
	"distcover/internal/baseline/kvy"
	"distcover/internal/baseline/ky"
	"distcover/internal/baseline/local"
	"distcover/internal/core"
	"distcover/internal/lp"
)

// CompareResult is one algorithm's measured outcome in Compare.
type CompareResult struct {
	// Algorithm names the algorithm (paper reference in brackets).
	Algorithm string
	// Guarantee is the proven approximation factor.
	Guarantee string
	// Weight is the cover weight the algorithm found.
	Weight int64
	// CertifiedRatio is weight divided by the algorithm's dual lower bound
	// (or the greedy dual bound for algorithms without a certificate).
	CertifiedRatio float64
	// Rounds is the CONGEST round count (0 for sequential references).
	Rounds int
	// Distributed reports whether the algorithm is a distributed protocol.
	Distributed bool
}

// Compare runs this paper's algorithm side by side with the baseline
// families cited in its Tables 1 and 2 — KVY [15], randomized KY [16],
// weight-scaled KMW [18], local-ratio coloring [2], plus the sequential
// Bar-Yehuda–Even and greedy references — on the given instance, and
// returns one row per algorithm. Options configure this paper's algorithm
// only (ε, variant, α policy); baselines run with ε = 1.
//
// Compare is how the repository's Table 1/Table 2 reproductions are built;
// see cmd/benchharness for full parameter sweeps.
func Compare(in *Instance, opts ...Option) ([]CompareResult, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts).core
	g := in.g
	ratioOf := func(w int64, dual float64) float64 {
		if dual <= 0 {
			if w == 0 {
				return 1
			}
			return 0
		}
		return float64(w) / dual
	}
	var out []CompareResult

	res, err := core.Run(g, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	out = append(out, CompareResult{
		Algorithm:      "this work (Ben-Basat et al. PODC 2019)",
		Guarantee:      fmt.Sprintf("f+ε = %d+%.3g", maxRank(g.Rank()), res.Epsilon),
		Weight:         res.CoverWeight,
		CertifiedRatio: res.RatioBound,
		Rounds:         res.Rounds,
		Distributed:    true,
	})

	kv, err := kvy.Run(g, 1)
	if err != nil {
		return nil, fmt.Errorf("distcover: kvy baseline: %w", err)
	}
	out = append(out, CompareResult{
		Algorithm:      "Khuller-Vishkin-Young [15]",
		Guarantee:      "f+1",
		Weight:         kv.CoverWeight,
		CertifiedRatio: ratioOf(kv.CoverWeight, kv.DualValue),
		Rounds:         kv.Rounds,
		Distributed:    true,
	})

	kyRes, err := ky.Run(g, 1, 1)
	if err != nil {
		return nil, fmt.Errorf("distcover: ky baseline: %w", err)
	}
	out = append(out, CompareResult{
		Algorithm:      "Koufogiannakis-Young style [16] (randomized)",
		Guarantee:      "f+1",
		Weight:         kyRes.CoverWeight,
		CertifiedRatio: ratioOf(kyRes.CoverWeight, kyRes.DualValue),
		Rounds:         kyRes.Rounds,
		Distributed:    true,
	})

	km, err := kmw.Run(g, 1)
	if err != nil {
		return nil, fmt.Errorf("distcover: kmw baseline: %w", err)
	}
	out = append(out, CompareResult{
		Algorithm:      "Kuhn-Moscibroda-Wattenhofer style [18]",
		Guarantee:      "f+1",
		Weight:         km.CoverWeight,
		CertifiedRatio: ratioOf(km.CoverWeight, km.DualValue),
		Rounds:         km.Rounds,
		Distributed:    true,
	})

	loc := local.Run(g)
	out = append(out, CompareResult{
		Algorithm:      "Åstrand-Suomela style [2]",
		Guarantee:      "f",
		Weight:         loc.CoverWeight,
		CertifiedRatio: ratioOf(loc.CoverWeight, loc.DualValue),
		Rounds:         loc.Rounds,
		Distributed:    true,
	})

	bye := baseline.BarYehudaEven(g)
	out = append(out, CompareResult{
		Algorithm:      "Bar-Yehuda-Even (sequential local ratio)",
		Guarantee:      "f",
		Weight:         bye.CoverWeight,
		CertifiedRatio: ratioOf(bye.CoverWeight, bye.DualValue),
	})

	gr := baseline.Greedy(g)
	out = append(out, CompareResult{
		Algorithm:      "greedy (sequential)",
		Guarantee:      "H_m",
		Weight:         gr.CoverWeight,
		CertifiedRatio: ratioOf(gr.CoverWeight, lp.GreedyDualBound(g)),
	})
	return out, nil
}

func maxRank(f int) int {
	if f < 1 {
		return 1
	}
	return f
}
