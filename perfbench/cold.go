package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"distcover"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
	"distcover/server/api"
)

// solve-cold: one standalone coverd, one connection, every request an
// instance the server has never seen, solved in f-approximation mode by
// two in-process partitions. Most of an op is the partition runner; the
// rest is request decode and the canonical hash; the result cache never
// hits.
const (
	coldAddr     = "127.0.0.1:39411"
	coldOptions  = `{"engine":"cluster","partitions":2,"f_approx":true}`
	coldParts    = 2
	coldDeadline = 10 * time.Second
	// coldIterSample ops per run are re-solved in process to match the
	// served iteration count and weight bit for bit.
	coldIterSample = 3
)

func coldLibOptions() []distcover.Option {
	return []distcover.Option{distcover.WithFApproximation(), distcover.WithClusterPartitions(coldParts)}
}

type solveCold struct {
	in  *solveInputs
	srv *coverd
	got []answer // every answered op, checked after the window
}

// answer is one retained response.
type answer struct {
	k    int
	body []byte
}

func newSolveCold(seed int64) *solveCold {
	return &solveCold{in: newSolveInputs(seed, saltCold, coldOptions)}
}

func (w *solveCold) spec() spec {
	return spec{setups: 9, warmup: 2, deadline: coldDeadline}
}

func (w *solveCold) setup(ctx context.Context, r *runner) error {
	c, err := r.launch(coldAddr, nil)
	if err != nil {
		return err
	}
	if err := c.waitHealthy(ctx); err != nil {
		return err
	}
	w.srv, w.got = c, nil
	return nil
}

func (w *solveCold) conns() []*conn { return []*conn{newConn(w, coldDeadline)} }

func (w *solveCold) op(k int) (string, [][]byte, error) {
	return w.srv.url() + "/v1/solve", w.in.parts(k), nil
}

func (w *solveCold) check(k int, body []byte) error {
	if !bytes.Contains(body, []byte(`"cached":false`)) {
		return errors.New("cold solve answered from the cache")
	}
	w.got = append(w.got, answer{k, bytes.Clone(body)})
	return nil
}

// verify checks every retained answer: a valid cover of the instance sent,
// the reported weight, the canonical hash, and the paper's bound
// ratio_bound ≤ f + ε. The first coldIterSample answers must also match an
// in-process solve with the same options in iterations and weight.
func (w *solveCold) verify() (int, error) {
	bad := 0
	var errs []error
	for n, a := range w.got {
		inst, err := w.in.instance(a.k)
		if err != nil {
			return 0, err
		}
		var res api.SolveResult
		if err := json.Unmarshal(a.body, &res); err != nil {
			bad++
			errs = append(errs, fmt.Errorf("op %d: %w", a.k, err))
			continue
		}
		err = checkCover(inst, &res, rank)
		if err == nil && n < coldIterSample {
			var sol *distcover.Solution
			if sol, err = distcover.Solve(inst, coldLibOptions()...); err == nil &&
				(sol.Iterations != res.Iterations || sol.Weight != res.Weight) {
				err = fmt.Errorf("served iterations %d weight %d, in-process %d/%d",
					res.Iterations, res.Weight, sol.Iterations, sol.Weight)
			}
		}
		if err != nil {
			bad++
			errs = append(errs, fmt.Errorf("op %d: %w", a.k, err))
		}
	}
	return bad, errors.Join(errs...)
}

// checkCover checks a served solve result against the instance it solved.
func checkCover(inst *distcover.Instance, res *api.SolveResult, f int) error {
	switch {
	case !inst.IsCover(res.Cover):
		return errors.New("cover misses an edge")
	case inst.CoverWeight(res.Cover) != res.Weight:
		return fmt.Errorf("weight %d, cover weighs %d", res.Weight, inst.CoverWeight(res.Cover))
	case res.RatioBound > float64(f)+res.Epsilon+1e-9:
		return fmt.Errorf("ratio bound %g exceeds f+ε = %g", res.RatioBound, float64(f)+res.Epsilon)
	case res.InstanceHash != inst.Hash():
		return errors.New("instance hash differs from the canonical hash")
	}
	return nil
}

// layers replays the first replaySample requests through the functions
// the server path runs: wire decode, instance decode, canonical hash, the
// solve with the workload's options, and the response encode. The phase
// and exchange split comes from the same partitioned run under a trace
// recorder; each partition reports its own phases, so the sums are divided
// by the partition count to give one partition's critical path.
func (w *solveCold) layers(ctx context.Context, l layers, _ *runner) error {
	s := samples{}
	for i := 0; i < replaySample; i++ {
		body := join(w.in.parts(i))
		var req api.SolveRequest
		if err := s.time("server.decode_ms", func() error { return json.Unmarshal(body, &req) }); err != nil {
			return err
		}
		var inst *distcover.Instance
		if err := s.time("hypergraph.decode_ms", func() (err error) {
			inst, err = distcover.ReadInstance(bytes.NewReader(req.Instance))
			return err
		}); err != nil {
			return err
		}
		s.time("hypergraph.hash_ms", func() error { inst.Hash(); return nil })
		var sol *distcover.Solution
		if err := s.time("core.solve_ms", func() (err error) {
			sol, err = distcover.Solve(inst, coldLibOptions()...)
			return err
		}); err != nil {
			return err
		}
		s["core.iterations"] = append(s["core.iterations"], float64(sol.Iterations))
		res := solveResult(sol, inst.Hash())
		if err := s.time("api.encode_ms", func() error { _, err := json.Marshal(res); return err }); err != nil {
			return err
		}

		g, err := hypergraph.ReadFrom(bytes.NewReader(req.Instance))
		if err != nil {
			return err
		}
		opts := core.DefaultOptions()
		opts.FApprox = true
		rec := telemetry.NewRecorder("")
		opts.Tracer = rec
		if _, err := core.RunPartitioned(ctx, g, opts, nil, coldParts); err != nil {
			return err
		}
		rep := rec.Report()
		for _, p := range []string{telemetry.PhaseInit, telemetry.PhaseVertex, telemetry.PhaseEdge, telemetry.PhaseGather} {
			name := "core.phase." + p + "_ms"
			s[name] = append(s[name], rep.PhaseSeconds[p]*1000/coldParts)
		}
		var bnd, cov float64
		for _, it := range rep.Iterations {
			bnd += it.BoundaryWaitSeconds
			cov += it.CoverageWaitSeconds
		}
		s["core.exchange.boundary_ms"] = append(s["core.exchange.boundary_ms"], bnd*1000/coldParts)
		s["core.exchange.coverage_ms"] = append(s["core.exchange.coverage_ms"], cov*1000/coldParts)
	}
	s.into(l)
	return nil
}

// solveResult is the response value coverd encodes for a fresh solve.
func solveResult(sol *distcover.Solution, hash string) *api.SolveResult {
	return &api.SolveResult{
		Cover:          sol.Cover,
		Weight:         sol.Weight,
		DualLowerBound: sol.DualLowerBound,
		RatioBound:     sol.RatioBound,
		Epsilon:        sol.Epsilon,
		Iterations:     sol.Iterations,
		Rounds:         sol.Rounds,
		InstanceHash:   hash,
	}
}
