package sessions

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"distcover"
	"distcover/internal/bench"
)

// flatWorkers is the fixed flat-runner worker count of the probes.
const flatWorkers = 4

// clusterLocalParts is the partition count of the in-process partitioned
// probe (the serving benchmark's cold-solve shape).
const clusterLocalParts = 2

// MeasureAllocs counts heap allocations on the hot paths the ROADMAP asks
// to gate machine-independently: a default solve (the frontier runner on
// one worker), the same solve on flatWorkers workers and split into
// clusterLocalParts in-process partitions, a session delta batch, and the
// instance path of every request: decoding the instance JSON and hashing
// it. Allocation counts are a property of the code, not the hardware, so
// the baseline comparator holds them to exact equality (the 0.001
// tolerance is float-formatting slack) — the regression gate that raw
// wall-clock tolerances are too loose to provide.
//
// The probes use a fixed instance independent of quick/full mode, so the
// quick CI run re-measures exactly the committed values. The flat probes
// pin the worker count to flatWorkers (rather than GOMAXPROCS) for the
// same reason: the pool's per-worker scratch allocates per worker, and
// the committed count must not depend on the machine's core count.
func MeasureAllocs(bench.Config) ([]bench.Measurement, []bench.Table, error) {
	inst, delta, err := allocProbeFixture()
	if err != nil {
		return nil, nil, err
	}
	solveAllocs := testing.AllocsPerRun(20, func() {
		if _, err := distcover.Solve(inst); err != nil {
			panic(err)
		}
	})
	flatAllocs := testing.AllocsPerRun(20, func() {
		if _, err := distcover.Solve(inst, distcover.WithSolverParallelism(flatWorkers)); err != nil {
			panic(err)
		}
	})
	clusterLocalAllocs := testing.AllocsPerRun(20, func() {
		if _, err := distcover.Solve(inst, distcover.WithClusterPartitions(clusterLocalParts)); err != nil {
			panic(err)
		}
	})
	updateAllocs, err := sessionUpdateAllocs(inst, delta, 20)
	if err != nil {
		return nil, nil, err
	}
	var body bytes.Buffer
	if _, err := inst.WriteTo(&body); err != nil {
		return nil, nil, err
	}
	decodeAllocs := testing.AllocsPerRun(20, func() {
		if _, err := distcover.ReadInstance(bytes.NewReader(body.Bytes())); err != nil {
			panic(err)
		}
	})
	hashAllocs := testing.AllocsPerRun(20, func() { inst.Hash() })

	t := bench.Table{
		ID:     "allocs",
		Title:  "Hot-path allocation counts (exact regression gate)",
		Header: []string{"path", "allocs/op"},
	}
	t.AddRow("Solve (default, 1 worker, 2000x4000 f=3)", fmt.Sprintf("%.0f", solveAllocs))
	t.AddRow(fmt.Sprintf("Solve (flat, %d workers)", flatWorkers), fmt.Sprintf("%.0f", flatAllocs))
	t.AddRow(fmt.Sprintf("Solve (in-process, %d partitions)", clusterLocalParts), fmt.Sprintf("%.0f", clusterLocalAllocs))
	t.AddRow("Session.Update (100-edge delta)", fmt.Sprintf("%.0f", updateAllocs))
	t.AddRow("ReadInstance (2000x4000 JSON)", fmt.Sprintf("%.0f", decodeAllocs))
	t.AddRow("Instance.Hash (no cached order)", fmt.Sprintf("%.0f", hashAllocs))
	ms := []bench.Measurement{
		{Name: "allocs/solve/sim", Value: solveAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/solve/flat", Value: flatAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/solve/cluster-local", Value: clusterLocalAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/session/update", Value: updateAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/instance/decode", Value: decodeAllocs, Unit: "allocs", Tolerance: 0.001},
		{Name: "allocs/instance/hash", Value: hashAllocs, Unit: "allocs", Tolerance: 0.001},
	}
	return ms, []bench.Table{t}, nil
}

// TraceProbe runs one flatWorkers-worker solve of the alloc-gate fixture
// with a telemetry recorder attached and returns its trace report — the
// benchharness -trace mode.
func TraceProbe() (*distcover.TraceReport, error) {
	inst, _, err := allocProbeFixture()
	if err != nil {
		return nil, err
	}
	rec := distcover.NewTraceRecorder("")
	if _, err := distcover.Solve(inst, distcover.WithSolverParallelism(flatWorkers),
		distcover.WithTelemetry(rec)); err != nil {
		return nil, err
	}
	return rec.Report(), nil
}

// allocProbeFixture builds the fixed instance and delta the probes run on.
func allocProbeFixture() (*distcover.Instance, distcover.Delta, error) {
	const n, m = 2000, 4000
	weights := make([]int64, n)
	edges := make([][]int, m)
	// A deterministic LCG instead of math/rand keeps the fixture immune to
	// generator-library changes: the committed alloc counts must only move
	// when the solver or session code changes.
	state := uint64(0x9E3779B97F4A7C15)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for v := range weights {
		weights[v] = int64(1 + next(1000))
	}
	for e := range edges {
		edges[e] = []int{next(n), next(n), next(n)}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		return nil, distcover.Delta{}, err
	}
	var d distcover.Delta
	for i := 0; i < 100; i++ {
		d.Edges = append(d.Edges, []int{next(n), next(n), next(n)})
	}
	return inst, d, nil
}

// sessionUpdateAllocs measures the allocations of one Session.Update the
// way testing.AllocsPerRun does (GOMAXPROCS(1), averaged, rounded down),
// but with per-run setup outside the measured region: each run gets a
// fresh session so every Update applies the identical delta to identical
// state.
func sessionUpdateAllocs(inst *distcover.Instance, d distcover.Delta, runs int) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm up one full cycle so one-time lazy initialization is excluded.
	warm, err := distcover.NewSession(inst)
	if err != nil {
		return 0, err
	}
	if _, err := warm.Update(d); err != nil {
		return 0, err
	}
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		s, err := distcover.NewSession(inst)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := s.Update(d); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total / uint64(runs)), nil
}
