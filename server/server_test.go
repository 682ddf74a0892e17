package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/internal/hypergraph"
	"distcover/server"
	"distcover/server/api"
)

// newTestServer starts an in-process coverd on a loopback listener.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, client.New(hs.URL)
}

// genInstance produces a deterministic random instance through the public
// codec (the generators are internal).
func genInstance(t *testing.T, n, m, f int, seed int64) *distcover.Instance {
	t.Helper()
	g, err := hypergraph.UniformRandom(n, m, f, hypergraph.GenConfig{
		Seed: seed, MaxWeight: 100, Dist: hypergraph.WeightUniformRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	inst, err := distcover.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEndToEndBatch is the acceptance test: an in-process server with a
// worker pool much smaller than the batch solves ≥100 generated instances
// submitted through the Go client; every cover must be feasible with its
// certificate intact, repeated submission must hit the cache, and flooding
// past the queue bound must produce 429 backpressure.
func TestEndToEndBatch(t *testing.T) {
	const (
		batchSize = 120
		workers   = 4
		queue     = 16
		eps       = 0.5
	)
	srv, c := newTestServer(t, server.Config{Workers: workers, QueueDepth: queue})

	instances := make([]*distcover.Instance, batchSize)
	reqs := make([]api.SolveRequest, batchSize)
	for i := range reqs {
		instances[i] = genInstance(t, 60, 120, 3, int64(1000+i))
		raw, err := client.EncodeInstance(instances[i])
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = api.SolveRequest{Instance: raw, Options: api.SolveOptions{Epsilon: eps}}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	items, err := c.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, item := range items {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		res := item.Result
		if !instances[i].IsCover(res.Cover) {
			t.Fatalf("item %d: returned cover is infeasible", i)
		}
		if got := instances[i].CoverWeight(res.Cover); got != res.Weight {
			t.Fatalf("item %d: weight %d does not match cover (%d)", i, res.Weight, got)
		}
		// Certificate: Weight ≤ RatioBound × DualLowerBound and
		// DualLowerBound ≤ OPT, so Weight ≤ RatioBound × OPT; the bound
		// itself must respect the f+ε guarantee.
		f := instances[i].Stats().Rank
		if res.RatioBound > float64(f)+eps+1e-9 {
			t.Fatalf("item %d: ratio bound %.4f exceeds f+ε = %.1f", i, res.RatioBound, float64(f)+eps)
		}
		if float64(res.Weight) > res.RatioBound*res.DualLowerBound*(1+1e-9) {
			t.Fatalf("item %d: certificate broken: weight %d > %.4f × %.4f",
				i, res.Weight, res.RatioBound, res.DualLowerBound)
		}
		if res.InstanceHash == "" {
			t.Fatalf("item %d: missing instance hash", i)
		}
	}

	// Second submission of the same batch must be served from the cache.
	items2, err := c.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	cachedCount := 0
	for i, item := range items2 {
		if item.Error != "" {
			t.Fatalf("repeat item %d failed: %s", i, item.Error)
		}
		if item.Result.Cached {
			cachedCount++
		}
		if item.Result.Weight != items[i].Result.Weight {
			t.Fatalf("repeat item %d: weight changed %d → %d (non-deterministic?)",
				i, items[i].Result.Weight, item.Result.Weight)
		}
	}
	if cachedCount == 0 {
		t.Fatal("no cache hits on repeated submission")
	}
	if snap := srv.Metrics().Snapshot(); snap.CacheHits == 0 {
		t.Fatalf("metrics report no cache hits: %+v", snap)
	}

	// Backpressure: with one worker and a 2-slot queue, at most three sync
	// requests can be in the system at once (1 running + 2 queued, each
	// held by a waiting handler); 20 concurrent clients must see 429s.
	// The congest engine keeps each solve slow enough that the requests
	// genuinely overlap.
	busySrv, busyClient := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	// Sized so one congest solve takes tens of milliseconds even after
	// engine speedups — the flood must genuinely overlap 1 running + 2
	// queued requests before the 20 clients stop arriving.
	heavy := genInstance(t, 4000, 16000, 3, 99)
	heavyRaw, err := client.EncodeInstance(heavy)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		rejected int
		floodErr error
	)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Epsilon varies so the flood cannot be served from cache.
			opts := api.SolveOptions{
				Epsilon: 0.3 + float64(i)/100,
				Engine:  api.EngineCongest,
				NoCache: true,
			}
			_, err := busyClient.SolveRequest(ctx, api.SolveRequest{Instance: heavyRaw, Options: opts})
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, client.ErrBusy) {
				rejected++
			} else if err != nil && floodErr == nil {
				floodErr = fmt.Errorf("flood request %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	if floodErr != nil {
		t.Fatal(floodErr)
	}
	if rejected == 0 {
		t.Fatal("queue flood produced no 429 backpressure")
	}
	if snap := busySrv.Metrics().Snapshot(); snap.Backpressured == 0 {
		t.Fatalf("metrics report no backpressure: %+v", snap)
	}
}

func TestSolveSyncAndEngines(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	inst := genInstance(t, 30, 60, 3, 5)
	ctx := context.Background()

	simRes, err := c.Solve(ctx, inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatalf("sim solve: %v", err)
	}
	if !inst.IsCover(simRes.Cover) {
		t.Fatal("sim cover infeasible")
	}
	if simRes.Congest != nil {
		t.Fatal("sim result should not carry congest stats")
	}

	raw, err := client.EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{api.EngineCongest, api.EngineCongestParallel, api.EngineCongestSharded, api.EngineCongestTCP} {
		shards := 0
		if engine == api.EngineCongestSharded {
			shards = 3 // exercise an explicit per-request shard count
		}
		res, err := c.SolveRequest(ctx, api.SolveRequest{
			Instance: raw,
			Options:  api.SolveOptions{Epsilon: 0.5, Engine: engine, Shards: shards},
		})
		if err != nil {
			t.Fatalf("%s solve: %v", engine, err)
		}
		if res.Congest == nil || res.Congest.Rounds == 0 {
			t.Fatalf("%s: missing congest stats", engine)
		}
		if res.Weight != simRes.Weight {
			t.Fatalf("%s: weight %d differs from sim %d (engines must agree)",
				engine, res.Weight, simRes.Weight)
		}
	}

	// The flat engine must agree with sim exactly — and because the two
	// share a cache identity, the flat solve of an instance the simulator
	// already answered is a cache hit.
	flatRes, err := c.SolveRequest(ctx, api.SolveRequest{
		Instance: raw,
		Options:  api.SolveOptions{Epsilon: 0.5, Engine: api.EngineFlat, Parallelism: 3},
	})
	if err != nil {
		t.Fatalf("flat solve: %v", err)
	}
	if flatRes.Weight != simRes.Weight || flatRes.DualLowerBound != simRes.DualLowerBound {
		t.Fatalf("flat result (%d, %g) differs from sim (%d, %g)",
			flatRes.Weight, flatRes.DualLowerBound, simRes.Weight, simRes.DualLowerBound)
	}
	if !flatRes.Cached {
		t.Fatal("flat solve should share the sim cache identity")
	}

	if _, err := c.SolveRequest(ctx, api.SolveRequest{
		Instance: raw, Options: api.SolveOptions{Engine: "warp-drive"},
	}); err == nil {
		t.Fatal("unknown engine should fail")
	}
}

// TestHugeWorkerCountsAreCapped: parallelism, shards and (on a server
// without peers) partitions of 1<<20 are capped at the server's CPU count,
// so each such request returns the default request's cover, weight and
// dual bound instead of asking for a million goroutines and arenas.
func TestHugeWorkerCountsAreCapped(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	inst := genInstance(t, 30, 60, 3, 7)
	raw, err := client.EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := c.SolveRequest(ctx, api.SolveRequest{
		Instance: raw, Options: api.SolveOptions{Epsilon: 0.5, NoCache: true},
	})
	if err != nil {
		t.Fatalf("default solve: %v", err)
	}
	const huge = 1 << 20
	for _, o := range []api.SolveOptions{
		{Engine: api.EngineFlat, Parallelism: huge},
		{Engine: api.EngineCongestSharded, Shards: huge},
		{Engine: api.EngineCluster, Partitions: huge},
	} {
		o.Epsilon, o.NoCache = 0.5, true
		got, err := c.SolveRequest(ctx, api.SolveRequest{Instance: raw, Options: o})
		if err != nil {
			t.Fatalf("%s: %v", o.Engine, err)
		}
		if !reflect.DeepEqual(got.Cover, want.Cover) || got.Weight != want.Weight ||
			got.DualLowerBound != want.DualLowerBound {
			t.Fatalf("%s: (%v, %d, %g) differs from the default request (%v, %d, %g)",
				o.Engine, got.Cover, got.Weight, got.DualLowerBound, want.Cover, want.Weight, want.DualLowerBound)
		}
	}
}

func TestSolveILP(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	// minimize 3x0 + 2x1 + 4x2  s.t.  x0+x1 ≥ 1, x1+x2 ≥ 2.
	req := api.SolveRequest{
		ILP: &api.ILPSpec{
			Weights: []int64{3, 2, 4},
			Constraints: []api.ILPConstraint{
				{Vars: []int{0, 1}, Coefs: []int64{1, 1}, Bound: 1},
				{Vars: []int{1, 2}, Coefs: []int64{1, 1}, Bound: 2},
			},
		},
		Options: api.SolveOptions{Epsilon: 0.5},
	}
	res, err := c.SolveRequest(context.Background(), req)
	if err != nil {
		t.Fatalf("ilp solve: %v", err)
	}
	if len(res.X) != 3 {
		t.Fatalf("expected 3 variables, got %v", res.X)
	}
	if res.X[0]+res.X[1] < 1 || res.X[1]+res.X[2] < 2 {
		t.Fatalf("infeasible ILP solution %v", res.X)
	}
	want := int64(3*res.X[0] + 2*res.X[1] + 4*res.X[2])
	if res.Value != want {
		t.Fatalf("value %d does not match solution %v (want %d)", res.Value, res.X, want)
	}
	// Repeat: identical ILP must hit the cache.
	res2, err := c.SolveRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("repeated ILP did not hit the cache")
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 16})
	inst := genInstance(t, 40, 80, 2, 11)
	raw, err := client.EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	id, err := c.SolveAsync(ctx, api.SolveRequest{Instance: raw, Options: api.SolveOptions{Epsilon: 1}})
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	res, err := c.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("async cover infeasible")
	}

	if _, err := c.Job(ctx, "no-such-job"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown job: want ErrNotFound, got %v", err)
	}

	// Async submit of a cached instance completes immediately.
	id2, err := c.SolveAsync(ctx, api.SolveRequest{Instance: raw, Options: api.SolveOptions{Epsilon: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.JobDone || !st.Result.Cached {
		t.Fatalf("cached async job should be done immediately, got %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 1 << 20})
	ctx := context.Background()

	// Neither instance nor ILP.
	if _, err := c.SolveRequest(ctx, api.SolveRequest{}); err == nil {
		t.Fatal("empty request should fail")
	}
	// Malformed instance JSON.
	if _, err := c.SolveRequest(ctx, api.SolveRequest{Instance: []byte(`{"weights":[0],"edges":[[0]]}`)}); err == nil {
		t.Fatal("zero weight should fail validation")
	}
	// Empty batch.
	if _, err := c.SolveBatch(ctx, nil); err == nil {
		t.Fatal("empty batch should fail")
	}
}

// TestNullInstanceCountsAsAbsent: an explicit "instance":null is the same
// as leaving the field out, on every route that takes an instance, while
// an empty object stays a valid empty instance.
func TestNullInstanceCountsAsAbsent(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	const ilp = `"ilp":{"weights":[3,2],"constraints":[{"vars":[0,1],"coefs":[1,1],"bound":1}]}`
	for _, tc := range []struct {
		path, body string
		status     int
		want       string
	}{
		{"/v1/solve", `{"instance":null}`, http.StatusBadRequest, "request must set instance or ilp"},
		{"/v1/solve", `{"instance":null,` + ilp + `}`, http.StatusOK, `"x":[`},
		{"/v1/solve/batch", `{"requests":[{"instance":null}]}`, http.StatusOK, "request must set instance or ilp"},
		{"/v1/sessions", `{"instance":null}`, http.StatusBadRequest, "request must set instance"},
		{"/v1/solve", `{"instance":{}}`, http.StatusOK, `"instance_hash":"1cf067cd`},
		{"/v1/sessions", `{"instance":{}}`, http.StatusCreated, `"instance_hash":"1cf067cd`},
	} {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.want) {
			t.Errorf("POST %s %s: %d %s, want %d containing %s", tc.path, tc.body, resp.StatusCode, body, tc.status, tc.want)
		}
	}
}

// TestServerConcurrentSolves exercises the worker pool with many parallel
// sync requests over distinct instances (run with -race).
func TestServerConcurrentSolves(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				inst := genInstance(t, 30, 60, 2, int64(g*100+k))
				res, err := c.Solve(ctx, inst, api.SolveOptions{Epsilon: 1})
				if err != nil {
					if errors.Is(err, client.ErrBusy) {
						continue // backpressure is legal under load
					}
					errCh <- fmt.Errorf("client %d req %d: %w", g, k, err)
					return
				}
				if !inst.IsCover(res.Cover) {
					errCh <- fmt.Errorf("client %d req %d: infeasible cover", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	srv := server.New(server.Config{Workers: 3, QueueDepth: 7})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.QueueCapacity != 7 {
		t.Fatalf("unexpected health: %+v", h)
	}

	inst := genInstance(t, 20, 40, 2, 3)
	if _, err := c.Solve(context.Background(), inst, api.SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, series := range []string{
		`coverd_solves_total{outcome="ok"} 1`,
		"coverd_solve_seconds_bucket",
		"coverd_solve_seconds_count 1",
		"coverd_cache_misses_total 1",
		"coverd_queue_depth",
		"coverd_workers 3",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q\n%s", series, text)
		}
	}
}
