package distcover_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"distcover"
)

// telemetryTestInstance builds a fixed mid-size instance with the same
// LCG the alloc bench probes use, so the measured counts are
// deterministic across machines and generator-library changes.
func telemetryTestInstance(t *testing.T) *distcover.Instance {
	t.Helper()
	const n, m = 400, 800
	weights := make([]int64, n)
	edges := make([][]int, m)
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
		t.Fatal(err)
	}
	return inst
}

// TestTelemetryDisabledZeroAllocOverhead is the alloc companion to the
// goroutine leak tests: with tracing off (the default), the telemetry
// hooks in the flat runner must not cost a single allocation — including
// when the telemetry options are passed but disabled (nil recorder/
// tracer), which exercises the option plumbing and the typed-nil-
// interface guards.
func TestTelemetryDisabledZeroAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race: sync.Pool sheds Puts randomly")
	}
	inst := telemetryTestInstance(t)
	const workers = 4
	flatOpts := []distcover.Option{
		distcover.WithSolverParallelism(workers),
	}
	solve := func(extra ...distcover.Option) func() {
		opts := append(append([]distcover.Option(nil), flatOpts...), extra...)
		return func() {
			if _, err := distcover.Solve(inst, opts...); err != nil {
				panic(err)
			}
		}
	}

	base := testing.AllocsPerRun(10, solve())
	withNilTelemetry := testing.AllocsPerRun(10, solve(
		distcover.WithTracer(nil), distcover.WithTelemetry(nil), distcover.WithLogger(nil),
	))
	if withNilTelemetry != base {
		t.Fatalf("disabled telemetry options cost allocations: %v with nil telemetry vs %v base",
			withNilTelemetry, base)
	}
}

// TestTelemetryRecorderDoesNotPerturbSolve asserts tracing is
// observation-only: a recorded flat solve returns the bit-identical
// solution, fills the report, and leaves no goroutines behind.
func TestTelemetryRecorderDoesNotPerturbSolve(t *testing.T) {
	inst := telemetryTestInstance(t)
	opts := []distcover.Option{
		distcover.WithSolverParallelism(4),
	}
	want, err := distcover.Solve(inst, opts...)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	rec := distcover.NewTraceRecorder("t-perturb")
	got, err := distcover.Solve(inst, append(opts, distcover.WithTelemetry(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cover, want.Cover) || got.Weight != want.Weight ||
		got.DualLowerBound != want.DualLowerBound {
		t.Fatalf("recorded solve diverges from plain solve:\n%+v\nvs\n%+v", got, want)
	}

	rep := rec.Report()
	if rep.TraceID != "t-perturb" || rep.Engine != "flat" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.TotalSeconds <= 0 || len(rep.Iterations) == 0 {
		t.Fatalf("report empty: %+v", rep)
	}
	var phaseTotal float64
	for _, s := range rep.PhaseSeconds {
		phaseTotal += s
	}
	if phaseTotal <= 0 {
		t.Fatalf("no phase timings recorded: %+v", rep.PhaseSeconds)
	}

	// The recorder is synchronous; tracing must not leave goroutines
	// behind (give the flat worker pool a moment to park).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked by traced solve: %d before, %d after", before, now)
	}
}
