package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// layers holds the per-layer metrics of one traced run.
type layers map[string]float64

type metricDef struct{ name, unit string }

// layerMetrics lists every per-layer metric. Times are medians over the
// replayed sample unless the server measured them (server.*: window means
// from coverd's own histograms). A metric of a layer the workload's ops
// never reach reads 0 — core.* on solve-cached, session.* on the solves —
// which is itself the prediction that a change there leaves the workload
// alone.
var layerMetrics = []metricDef{
	{"http.rtt_ms", "ms"},                 // GET /healthz round trip, a floor on every op
	{"server.decode_ms", "ms"},            // json.Unmarshal of the request body into its api type
	{"hypergraph.decode_ms", "ms"},        // distcover.ReadInstance
	{"hypergraph.hash_ms", "ms"},          // Instance.Hash
	{"ring.key_ms", "ms"},                 // decode+hash again, as the owner's solveKey does
	{"server.cache_hit_ratio", "ratio"},   // Δhits / Δ(hits+misses)
	{"server.queue_wait_ms", "ms"},        // coverd_job_queue_wait_seconds window mean
	{"server.solve_ms", "ms"},             // coverd_solve_seconds window mean
	{"core.solve_ms", "ms"},               // distcover.Solve with the workload's options
	{"core.iterations", "count"},          // iterations of that solve
	{"core.phase.init_ms", "ms"},          // trace recorder report, per partition
	{"core.phase.vertex_ms", "ms"},        //
	{"core.phase.edge_ms", "ms"},          //
	{"core.phase.gather_ms", "ms"},        //
	{"core.exchange.boundary_ms", "ms"},   // shared-memory exchange waits, per partition
	{"core.exchange.coverage_ms", "ms"},   //
	{"hypergraph.extend_ms", "ms"},        // Instance.Extend with the workload's deltas
	{"session.update_ms", "ms"},           // Session.Update with the same deltas
	{"session.residual_edges", "count"},   // residual edges per update
	{"session.state_ms", "ms"},            // Session.State
	{"api.encode_ms", "ms"},               // json.Marshal of the response value
	{"api.request_bytes", "bytes"},        // median request body in the window
	{"api.response_bytes", "bytes"},       // median response body in the window
	{"durable.append_ms", "ms"},           // durable.Store.Append of the deltas
	{"durable.wal_bytes_per_op", "bytes"}, // WAL file growth over the window ÷ ops
	{"ring.hop_ms", "ms"},                 // probe update via the non-owner minus direct
	{"ring.forwards_per_op", "count"},     // Δcoverd_ring_forwards_total ÷ ops
	{"server.wal_records_per_op", "count"},
	{"trace.unexplained_frac", "ratio"}, // 1 − Σ serial stages ÷ traced p50
	{"trace.overhead_frac", "ratio"},    // traced p50 ÷ untraced p50 − 1
	{"host.calib_ms", "ms"},             // fixed JSON kernel, before and after the run
}

// serialStages run one after another on an op's blocking path; the share
// of the traced p50 they leave unexplained is a report of its own. Stages
// nested inside one of these (hypergraph.extend_ms in session.update_ms,
// the core phases in core.solve_ms) are not added again.
var serialStages = []string{
	"http.rtt_ms", "server.decode_ms", "ring.key_ms", "hypergraph.decode_ms",
	"hypergraph.hash_ms", "server.queue_wait_ms", "core.solve_ms",
	"session.update_ms", "durable.append_ms", "session.state_ms",
	"api.encode_ms", "ring.hop_ms",
}

// edge is what the traced run reads at a window edge.
type edge struct {
	prom promScrape
	wal  int64
}

func observe(ctx context.Context, r *runner) (edge, error) {
	p, err := r.scrape(ctx)
	if err != nil {
		return edge{}, err
	}
	wal, err := walBytes(r.tmp)
	return edge{p, wal}, err
}

func layerReport(ctx context.Context, w workload, r *runner, plain, traced *window, e0, e1 edge) (layers, error) {
	if len(plain.latMS) == 0 || len(traced.latMS) == 0 {
		return nil, errNoOps
	}
	l := layers{}
	ops := float64(traced.attempted)
	d := map[string]float64{}
	for _, series := range []string{"coverd_wal_snapshots_total", "coverd_cache_hits_total",
		"coverd_cache_misses_total", "coverd_ring_forwards_total", "coverd_wal_records_total"} {
		v, err := delta(e0.prom, e1.prom, series)
		if err != nil {
			return nil, err
		}
		d[series] = v
	}
	if snaps := d["coverd_wal_snapshots_total"]; snaps != 0 {
		return nil, fmt.Errorf("%v WAL snapshots inside the traced window, want none", snaps)
	}
	hits, misses := d["coverd_cache_hits_total"], d["coverd_cache_misses_total"]
	l["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	for name, family := range map[string]string{
		"server.queue_wait_ms": "coverd_job_queue_wait_seconds",
		"server.solve_ms":      "coverd_solve_seconds",
	} {
		mean, _, err := histMean(e0.prom, e1.prom, family)
		if err != nil {
			return nil, err
		}
		l[name] = mean * 1000
	}
	l["ring.forwards_per_op"] = d["coverd_ring_forwards_total"] / ops
	l["server.wal_records_per_op"] = d["coverd_wal_records_total"] / ops
	l["durable.wal_bytes_per_op"] = float64(e1.wal-e0.wal) / ops
	l["api.request_bytes"] = median(traced.reqBytes)
	l["api.response_bytes"] = median(traced.respBytes)

	rtt, err := rttMS(ctx, r)
	if err != nil {
		return nil, err
	}
	l["http.rtt_ms"] = rtt
	if err := w.layers(ctx, l, r); err != nil {
		return nil, err
	}

	p50 := median(traced.latMS)
	stages := 0.0
	for _, s := range serialStages {
		stages += l[s]
	}
	l["trace.unexplained_frac"] = 1 - stages/p50
	l["trace.overhead_frac"] = p50/median(plain.latMS) - 1
	return l, nil
}

// rttMS is the median GET /healthz round trip over a warm keep-alive
// connection to each live coverd.
func rttMS(ctx context.Context, r *runner) (float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{Proxy: nil}}
	defer hc.CloseIdleConnections()
	var ts []float64
	for _, c := range r.live() {
		for i := 0; i <= 50; i++ {
			t0 := time.Now()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url()+"/healthz", nil)
			if err != nil {
				return 0, err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if i > 0 { // the first request dials
				ts = append(ts, ms(time.Since(t0)))
			}
		}
	}
	return median(ts), nil
}
