package distcover

import (
	"log/slog"

	"distcover/internal/telemetry"
)

// This file is the public face of the solve-telemetry layer
// (internal/telemetry): an opt-in per-solve trace that breaks a run down
// into per-iteration phase timings (vertex/edge/gather, chunk imbalance
// on the flat engine), per-peer exchange latencies and wire volume on
// the cluster engine, and round/message totals on the CONGEST engines.
//
//	rec := distcover.NewTraceRecorder("")
//	sol, err := distcover.Solve(inst, distcover.WithSolverParallelism(0),
//	    distcover.WithTelemetry(rec))
//	report := rec.Report() // JSON-serializable phase/round breakdown
//
// Tracing is strictly opt-in: without WithTelemetry/WithTracer the
// solvers only ever test a nil field, so the default path's exactly
// gated allocation counts are unchanged.

// Tracer is the hook interface the engines invoke at phase boundaries;
// see TraceRecorder for the standard implementation. Custom
// implementations (e.g. a metrics registry adapter) attach with
// WithTracer and must be safe for concurrent use.
type Tracer = telemetry.Tracer

// TraceRecorder accumulates telemetry hooks into a TraceReport. One
// recorder may span several solves (a session's initial solve plus its
// updates); spans accumulate.
type TraceRecorder = telemetry.Recorder

// TraceReport is the JSON trace report; see the field docs in
// internal/telemetry.
type TraceReport = telemetry.Report

// IterationTiming is one per-iteration row of a TraceReport.
type IterationTiming = telemetry.IterationTiming

// PeerTraceStats is one per-peer row of a TraceReport.
type PeerTraceStats = telemetry.PeerStats

// NewTraceRecorder returns a recorder for WithTelemetry. traceID
// correlates the solve across coordinator and peer logs of a cluster
// run; empty generates a fresh random id.
func NewTraceRecorder(traceID string) *TraceRecorder {
	return telemetry.NewRecorder(traceID)
}

// WithTelemetry attaches a trace recorder to the solve: every engine
// reports phase timings into it, cluster solves add per-peer exchange
// latency and frame accounting, and its trace id rides the cluster wire
// protocol so coordinator and peer logs correlate. Read the result with
// rec.Report().
func WithTelemetry(rec *TraceRecorder) Option {
	return optionFunc(func(c *solveConfig) { c.recorder = rec })
}

// WithTracer attaches a raw telemetry hook sink in addition to (or
// instead of) a recorder — the coverd server routes its Prometheus
// histogram adapter through this. Most callers want WithTelemetry.
func WithTracer(t Tracer) Option {
	return optionFunc(func(c *solveConfig) { c.tracer = t })
}

// WithLogger routes structured solve logs — today the cluster
// coordinator's per-solve and per-peer lines, each carrying the solve's
// trace_id — to the given slog logger. nil (the default) is silent.
func WithLogger(l *slog.Logger) Option {
	return optionFunc(func(c *solveConfig) { c.logger = l })
}
