package bench

import (
	"fmt"
	"runtime"
	"time"

	"distcover/internal/congest"
	"distcover/internal/core"
)

// MeasureFlat runs the direct-solver suite (E13): the chunk-parallel flat
// runner against the fastest CONGEST engine (sharded) on the same
// workloads as the throughput suite. The flat runner executes the
// algorithm itself — no message simulation — so this is the production
// solve path coverd's engine "flat" serves; the suite pins both its
// absolute time and its multiple over the sharded engine, the previous
// fastest committed number. Both solvers must agree on the cover weight:
// the flat runner is bit-identical to the CONGEST engines (engine
// equivalence tests), so any weight divergence here is a real bug, not
// noise.
func MeasureFlat(cfg Config) ([]Measurement, []Table, error) {
	mode := pick(cfg, "full", "quick")
	t := Table{
		ID:     "E13",
		Title:  "Direct solver throughput: chunk-parallel flat runner vs sharded CONGEST",
		Header: []string{"workload", "n+m", "workers", "iters", "flat ms", "sharded ms", "vs sharded"},
	}
	var ms []Measurement
	opts := core.DefaultOptions()
	workloads, err := engineWorkloads(cfg)
	if err != nil {
		return nil, nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	reps := pick(cfg, 1, 3)
	for _, wl := range workloads {
		var (
			flatRes  *core.Result
			flatBest time.Duration
		)
		for r := 0; r < reps; r++ {
			start := time.Now()
			res, err := core.Run(wl.g, opts, nil, 0)
			d := time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: flat on %s: %w", wl.name, err)
			}
			if r == 0 || d < flatBest {
				flatRes, flatBest = res, d
			}
		}
		var (
			shardRes  *core.Result
			shardBest time.Duration
		)
		for r := 0; r < reps; r++ {
			// Rebuilt per rep (networks are stateful); the sharded reading
			// covers engine execution only, matching the E11 entry of the
			// same name — construction is a separate, engine-independent
			// cost, so the committed ratio compares solver against solver.
			nw, vnodes, enodes, err := core.BuildNetwork(wl.g, opts, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: build %s: %w", wl.name, err)
			}
			start := time.Now()
			res, _, err := core.RunBuiltNetwork(wl.g, opts, nw, vnodes, enodes, congest.ShardedEngine{}, congest.Options{})
			d := time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: sharded on %s: %w", wl.name, err)
			}
			if r == 0 || d < shardBest {
				shardRes, shardBest = res, d
			}
		}
		if flatRes.CoverWeight != shardRes.CoverWeight {
			return nil, nil, fmt.Errorf(
				"bench: flat diverges from sharded on %s: weight %d vs %d",
				wl.name, flatRes.CoverWeight, shardRes.CoverWeight)
		}
		netNodes := wl.g.NumVertices() + wl.g.NumEdges()
		speedup := shardBest.Seconds() / flatBest.Seconds()
		t.AddRow(wl.name, fmtI(netNodes), fmtI(workers), fmtI(flatRes.Iterations),
			fmtF(float64(flatBest.Milliseconds())), fmtF(float64(shardBest.Milliseconds())),
			fmt.Sprintf("%.1fx", speedup))
		ms = append(ms,
			Measurement{
				Name:  fmt.Sprintf("%s/%s/flat/ns", mode, wl.name),
				Value: float64(flatBest.Nanoseconds()), Unit: "ns",
				Tolerance: 0.75,
			},
			// Iteration count is exact for a fixed seed; drift means the
			// solver changed behavior, which the equivalence tests should
			// have caught first.
			Measurement{
				Name:  fmt.Sprintf("%s/%s/flat-iterations", mode, wl.name),
				Value: float64(flatRes.Iterations), Unit: "iters",
				Tolerance: 0.001,
			},
			Measurement{
				Name:           fmt.Sprintf("%s/%s/speedup-flat-vs-sharded", mode, wl.name),
				Value:          speedup,
				Unit:           "x",
				HigherIsBetter: true,
				// Machine-portable like the other speedup ratios, with the
				// same wide band: core counts and scheduler jitter move both
				// legs, but the committed full-mode 1M value must stay a
				// comfortable multiple of the tentpole 3x floor.
				Tolerance: 0.6,
			})
	}
	t.Notes = append(t.Notes,
		"flat and sharded must agree on the cover weight (verified per row); bit-identity is enforced by the engine-equivalence tests",
		"flat-vs-sharded speedup at 1M nodes is the tentpole metric; BENCH_baseline.json pins it at >= 3x")
	return ms, []Table{t}, nil
}

// FlatThroughput is the Registry adapter for MeasureFlat.
func FlatThroughput(cfg Config) ([]Table, error) {
	_, tables, err := MeasureFlat(cfg)
	return tables, err
}
