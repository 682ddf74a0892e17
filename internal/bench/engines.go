package bench

import (
	"fmt"
	"runtime"
	"time"

	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// engineWorkload is one instance family member of the throughput suite,
// sized so the CONGEST network (vertex nodes + edge nodes) hits the target
// scale.
type engineWorkload struct {
	name string
	g    *hypergraph.Hypergraph
}

// engineWorkloads builds the throughput instances. Full mode includes the
// million-node network the ROADMAP's scale goal is measured on; quick mode
// shrinks to CI scale. Power-law instances stress the sharded engine with
// skewed per-node work (hub vertices own most of the links).
func engineWorkloads(cfg Config) ([]engineWorkload, error) {
	type spec struct {
		name       string
		kind       string // "regular" | "powerlaw"
		n, m, d, f int
	}
	specs := pick(cfg, []spec{
		// n + m = 1_000_000 CONGEST nodes, ~2.4M links.
		{name: "regular-1M", kind: "regular", n: 400_000, d: 6, f: 4},
		// Heavy-tailed degrees at 300k nodes: a few hubs see ~10³ links.
		{name: "powerlaw-300k", kind: "powerlaw", n: 120_000, m: 180_000, f: 3},
	}, []spec{
		{name: "regular-30k", kind: "regular", n: 12_000, d: 6, f: 4},
		{name: "powerlaw-10k", kind: "powerlaw", n: 4_000, m: 6_000, f: 3},
	})
	var out []engineWorkload
	for _, s := range specs {
		var (
			g   *hypergraph.Hypergraph
			err error
		)
		switch s.kind {
		case "regular":
			g, err = hypergraph.RegularLike(s.n, s.d, s.f, hypergraph.GenConfig{
				Seed: cfg.Seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
			})
		case "powerlaw":
			g, err = hypergraph.PowerLaw(s.n, s.m, s.f, hypergraph.GenConfig{
				Seed: cfg.Seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 12,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("bench: engine workload %s: %w", s.name, err)
		}
		out = append(out, engineWorkload{name: s.name, g: g})
	}
	return out, nil
}

// throughputEngines lists the measured engines in presentation order; the
// first is the reference every other engine is checked and timed against.
// sharded-1 is the sharded engine held to one shard: like the sequential
// reference it runs on a single thread, so the ratio of the two measures
// the sharded engine's own cost independently of the machine's core
// count. The TCP engine is excluded: one socket per node caps it far
// below this scale.
func throughputEngines() []struct {
	name string
	eng  congest.Engine
} {
	return []struct {
		name string
		eng  congest.Engine
	}{
		{"sequential", congest.SequentialEngine{}},
		{"sharded-1", congest.ShardedEngine{Shards: 1}},
		{"sharded", congest.ShardedEngine{}},
	}
}

// MeasureEngines runs the engine-throughput suite once and returns both the
// named measurements (for the regression baseline) and the printable table.
// Every engine solves the identical instance and the suite fails if the
// engines disagree on the result — throughput numbers for wrong answers are
// worthless.
func MeasureEngines(cfg Config) ([]Measurement, []Table, error) {
	mode := pick(cfg, "full", "quick")
	t := Table{
		ID:     "E11",
		Title:  "Engine throughput: sequential reference vs sharded worker pool",
		Header: []string{"workload", "engine", "nodes", "rounds", "msgs", "ms", "msgs/s", "vs sequential"},
	}
	var ms []Measurement
	opts := core.DefaultOptions()
	workloads, err := engineWorkloads(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, wl := range workloads {
		netNodes := wl.g.NumVertices() + wl.g.NumEdges()
		var (
			refWeight   int64
			refRounds   int
			refMessages int64
			buildBest   time.Duration
			engines     = throughputEngines()
			best        = make([]time.Duration, len(engines))
		)
		// Quick mode runs every engine several times and keeps each one's
		// fastest time: the workloads are milliseconds there. The reps are
		// interleaved — each rep runs every engine once, after a forced
		// GC — so a noisy stretch on a shared runner hits all engines
		// alike instead of skewing the sequential ÷ sharded-1 ratio.
		// Full-mode runs take seconds each and are read once.
		reps := pick(cfg, 1, 5)
		for r := 0; r < reps; r++ {
			for i, e := range engines {
				// Networks are stateful, so every run rebuilds; the build is
				// timed separately (its own reading below) and the per-engine
				// reading covers engine execution only — construction cost is
				// engine-independent and would dilute the throughput ratio.
				buildStart := time.Now()
				nw, vnodes, enodes, err := core.BuildNetwork(wl.g, opts, nil)
				buildD := time.Since(buildStart)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: build %s: %w", wl.name, err)
				}
				if buildBest == 0 || buildD < buildBest {
					buildBest = buildD
				}
				runtime.GC()
				start := time.Now()
				res, metrics, err := core.RunBuiltNetwork(wl.g, opts, nw, vnodes, enodes, e.eng, congest.Options{})
				d := time.Since(start)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: engine %s on %s: %w", e.name, wl.name, err)
				}
				if r == 0 && i == 0 {
					refWeight, refRounds, refMessages = res.CoverWeight, metrics.Rounds, metrics.Messages
				} else if res.CoverWeight != refWeight || metrics.Rounds != refRounds || metrics.Messages != refMessages {
					return nil, nil, fmt.Errorf(
						"bench: engine %s diverges on %s: weight=%d rounds=%d msgs=%d, want %d/%d/%d",
						e.name, wl.name, res.CoverWeight, metrics.Rounds, metrics.Messages,
						refWeight, refRounds, refMessages)
				}
				if best[i] == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		elapsed := map[string]time.Duration{}
		for i, e := range engines {
			d := best[i]
			elapsed[e.name] = d
			ms = append(ms, Measurement{
				Name:  fmt.Sprintf("%s/%s/%s/ns", mode, wl.name, e.name),
				Value: float64(d.Nanoseconds()), Unit: "ns",
				// Raw wall clock jitters heavily on shared runners; only a
				// multiple-scale slowdown is a trustworthy regression.
				Tolerance: 0.75,
			})
			t.AddRow(wl.name, e.name, fmtI(netNodes), fmtI(refRounds),
				fmtI64(refMessages), fmtF(float64(d.Milliseconds())),
				fmt.Sprintf("%.2fM", float64(refMessages)/d.Seconds()/1e6),
				fmt.Sprintf("%.2fx", best[0].Seconds()/d.Seconds()))
		}
		ms = append(ms,
			Measurement{
				Name:  fmt.Sprintf("%s/%s/build/ns", mode, wl.name),
				Value: float64(buildBest.Nanoseconds()), Unit: "ns",
				Tolerance: 0.75,
			},
			// Rounds and message counts are exact for a fixed seed — any
			// drift is a real protocol change, so the band is merely
			// float-formatting slack, not the loose wall-clock default.
			Measurement{
				Name:  fmt.Sprintf("%s/%s/rounds", mode, wl.name),
				Value: float64(refRounds), Unit: "rounds",
				Tolerance: 0.001,
			},
			Measurement{
				Name:  fmt.Sprintf("%s/%s/messages", mode, wl.name),
				Value: float64(refMessages), Unit: "msgs",
				Tolerance: 0.001,
			},
			Measurement{
				Name:           fmt.Sprintf("%s/%s/speedup-sharded-1-vs-sequential", mode, wl.name),
				Value:          elapsed["sequential"].Seconds() / elapsed["sharded-1"].Seconds(),
				Unit:           "x",
				HigherIsBetter: true,
				// Both legs run on one thread, so the ratio cancels machine
				// speed and core count alike; what it gates is the sharded
				// engine's per-round overhead (worker hand-off, pooled
				// outboxes) against the reference. Best-of-5 readings of
				// this ratio still spread about ±20% on a shared 2-vCPU
				// host, hence the band.
				Tolerance: 0.4,
			})
	}
	t.Notes = append(t.Notes,
		"all engines must produce identical covers, rounds and message counts (verified per row)",
		"sharded-1 is the sharded engine on one shard; BENCH_baseline.json pins sequential ÷ sharded-1, which is portable across core counts")
	return ms, []Table{t}, nil
}

// EngineThroughput is the Registry adapter for MeasureEngines.
func EngineThroughput(cfg Config) ([]Table, error) {
	_, tables, err := MeasureEngines(cfg)
	return tables, err
}
