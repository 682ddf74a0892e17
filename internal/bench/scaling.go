package bench

import (
	"fmt"
	"runtime"
	"time"

	"distcover/internal/core"
)

// defaultScalingWorkers is the worker-count sweep E17 runs when Config
// (benchharness -workers) does not override it.
var defaultScalingWorkers = []int{1, 2, 4, 8}

// MeasureScaling runs the multicore scaling suite (E17): the flat runner
// swept over worker counts on the engine workloads, gating *scaling
// efficiency* — the speedup of 4 workers over 1 — rather than absolute
// time. The ns-per-worker-count entries are machine-local diagnostics
// (skipped by -portable); the flat-scaling-4w ratio entries are the
// portable gate. On a full run on a machine with at least 4 CPUs, the 1M
// regular instance must additionally clear a hard in-code floor of 2.5×
// at 4 workers — the suite fails outright below it, baseline or not.
//
// Every worker count must produce the same cover weight and iteration
// count: the flat runner is bit-identical across worker counts by
// construction (gather order is ascending edge id), so a divergence here
// is a real bug, not noise.
func MeasureScaling(cfg Config) ([]Measurement, []Table, error) {
	mode := pick(cfg, "full", "quick")
	sweep := cfg.Workers
	if len(sweep) == 0 {
		sweep = defaultScalingWorkers
	}
	t := Table{
		ID:     "E17",
		Title:  "Multicore scaling: flat runner ns at 1/2/4/8 workers, speedup gate at 4",
		Header: []string{"workload", "n+m", "workers", "iters", "flat ms", "vs 1 worker"},
	}
	var ms []Measurement
	opts := core.DefaultOptions()
	workloads, err := engineWorkloads(cfg)
	if err != nil {
		return nil, nil, err
	}
	reps := pick(cfg, 1, 3)
	for _, wl := range workloads {
		best := make(map[int]time.Duration, len(sweep))
		var refWeight int64
		var refIters int
		for i, w := range sweep {
			var (
				res  *core.Result
				dur  time.Duration
				errW error
			)
			for r := 0; r < reps; r++ {
				start := time.Now()
				got, err := core.Run(wl.g, opts, nil, w)
				d := time.Since(start)
				if err != nil {
					errW = fmt.Errorf("bench: flat %d workers on %s: %w", w, wl.name, err)
					break
				}
				if r == 0 || d < dur {
					res, dur = got, d
				}
			}
			if errW != nil {
				return nil, nil, errW
			}
			if i == 0 {
				refWeight, refIters = res.CoverWeight, res.Iterations
			} else if res.CoverWeight != refWeight || res.Iterations != refIters {
				return nil, nil, fmt.Errorf(
					"bench: flat diverges across worker counts on %s: %d workers gives weight %d / %d iters, %d workers gives %d / %d",
					wl.name, sweep[0], refWeight, refIters, w, res.CoverWeight, res.Iterations)
			}
			best[w] = dur
			speedup := "-"
			if base, ok := best[sweep[0]]; ok && w != sweep[0] {
				speedup = fmt.Sprintf("%.2fx", base.Seconds()/dur.Seconds())
			}
			t.AddRow(wl.name, fmtI(wl.g.NumVertices()+wl.g.NumEdges()), fmtI(w),
				fmtI(res.Iterations), fmtF(float64(dur.Milliseconds())), speedup)
			ms = append(ms, Measurement{
				Name:  fmt.Sprintf("%s/%s/flat-w%d/ns", mode, wl.name, w),
				Value: float64(dur.Nanoseconds()), Unit: "ns",
				Tolerance: 0.75,
			})
		}
		if b1, ok1 := best[1]; ok1 {
			if b4, ok4 := best[4]; ok4 {
				speedup4 := b1.Seconds() / b4.Seconds()
				ms = append(ms, Measurement{
					Name:           fmt.Sprintf("%s/%s/flat-scaling-4w", mode, wl.name),
					Value:          speedup4,
					Unit:           "x",
					HigherIsBetter: true,
					// Wide band: the ratio depends on the measuring machine's
					// core count (a single-core box measures ~1.0), and the
					// committed value only anchors against collapse. The real
					// floor is the in-code check below, active on >= 4 CPUs.
					Tolerance: 0.7,
				})
				if !cfg.Quick && wl.name == "regular-1M" && runtime.NumCPU() >= 4 && speedup4 < 2.5 {
					return nil, nil, fmt.Errorf(
						"bench: flat scaling floor: %.2fx speedup at 4 workers on %s (NumCPU=%d), need >= 2.5x",
						speedup4, wl.name, runtime.NumCPU())
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"cover weight and iteration count are verified identical across worker counts per workload (bit-identity)",
		"flat-scaling-4w = best-of ns at 1 worker / best-of ns at 4 workers; on a full run with >= 4 CPUs the 1M instance must clear 2.5x (hard in-code floor)",
		fmt.Sprintf("this run: GOMAXPROCS=%d NumCPU=%d; ratios recorded on fewer CPUs than workers flatten toward 1.0", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return ms, []Table{t}, nil
}

// FlatScaling is the Registry adapter for MeasureScaling.
func FlatScaling(cfg Config) ([]Table, error) {
	_, tables, err := MeasureScaling(cfg)
	return tables, err
}
