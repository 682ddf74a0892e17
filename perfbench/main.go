// Command perfbench is the serving benchmark of coverd. It launches real
// coverd child processes, drives them from this one process in closed
// loops with request bodies encoded before launch, checks every answer,
// and prints one JSON result line. run.sh builds coverd and this command
// from source and runs it:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (each file explains why it exists):
//
//	solve-cold      cold.go      one coverd, 1 connection, every instance new
//	solve-cached    cached.go    two ring members, 1 connection, every op a cache hit on its owner
//	session-update  sessions.go  two ring members with a shared WAL, 2 connections, every update forwarded one hop
//
// --trace 0 reports the end-to-end metrics of one timed window. --trace 1
// is a separate run with the same seed and connections that reports the
// per-layer metrics (see layers.go): a window exactly like the untraced
// one, then a second window with coverd's /metrics scraped at both edges,
// then — servers idle — a replay of a fixed sample of the same inputs
// through the public functions of each layer, one call at a time.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	coverd   string // coverd binary
	workdir  string // scratch root inside the checkout
}

// spec is how a workload is run.
type spec struct {
	setups   int           // set-ups per untraced run; setup_s is their median
	warmup   int           // untimed ops per connection before the window
	deadline time.Duration // per-op deadline; an overrun is a failed op
}

// workload is one traffic mix. Its constructor generates every input from
// the seed before any coverd starts.
type workload interface {
	spec() spec
	// setup launches the workload's coverd processes and brings them to
	// ready: healthy, the cache pool solved, the sessions created.
	setup(ctx context.Context, r *runner) error
	// conns returns the timed loop's connections, bound to the last setup.
	conns() []*conn
	// verify checks the retained answers after the window and returns how
	// many ops failed a check.
	verify() (int, error)
	// layers replays a fixed sample of the inputs through each layer's
	// public functions, with the servers idle.
	layers(ctx context.Context, l layers, r *runner) error
}

// Sample sizes of the traced replay.
const (
	replaySample = 5  // solve requests
	replayDeltas = 40 // session deltas
	hopProbes    = 25 // probe updates per member and route
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "solve-cold, solve-cached or session-update")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.coverd, "coverd", "", "coverd binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for logs and WAL files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.coverd == "" || cfg.workdir == "" || cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -coverd, -workdir, -seconds > 0 and -trace 0|1 (run through run.sh)")
		os.Exit(2)
	}

	r, err := newRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// A run must end within 180 s whatever coverd does: past the deadline,
	// or on a signal, kill the children and fail without a result.
	abort := func(why string) {
		cancel()
		r.cleanup()
		fmt.Fprintln(os.Stderr, "perfbench:", why)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(170*time.Second, func() { abort("run exceeded 170s") })
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() { abort(fmt.Sprint("stopped by ", <-sigs)) }()

	res, err := run(ctx, cfg, r)
	watchdog.Stop()
	r.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "solve-cold":
		return newSolveCold(cfg.seed), nil
	case "solve-cached":
		return newSolveCached(cfg.seed)
	case "session-update":
		windows := 1
		if cfg.trace {
			windows = 2
		}
		return newSessionUpdate(cfg.seed, cfg.seconds, windows), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// endToEnd lists the metrics of an untraced run.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},    // completed ops ÷ window
	{"latency_p50_ms", "ms"},       // request written to response read, failures as the deadline
	{"latency_p90_ms", "ms"},       //
	{"server_cpu_ms_per_op", "ms"}, // user+system CPU of the workload's coverd processes ÷ ops
	{"setup_s", "s"},               // coverd launch to ready, median of the run's set-ups
	{"rss_mb", "MB"},               // peak RSS summed over the workload's coverd processes
}

func run(ctx context.Context, cfg config, r *runner) (*result, error) {
	calibBefore := calibrate()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	sp := w.spec()
	setups := sp.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		r.stopAll()
		t0 := time.Now()
		if err := w.setup(ctx, r); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	conns := w.conns()
	warm, err := drive(ctx, conns, sp.warmup, 0)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	wins := []*window{warm}
	values := map[string]float64{}
	if cfg.trace {
		plain, err := drive(ctx, conns, 0, dur)
		if err != nil {
			return nil, err
		}
		edge0, err := observe(ctx, r)
		if err != nil {
			return nil, err
		}
		traced, err := drive(ctx, conns, 0, dur)
		if err != nil {
			return nil, err
		}
		edge1, err := observe(ctx, r)
		if err != nil {
			return nil, err
		}
		wins = append(wins, plain, traced)
		if values, err = layerReport(ctx, w, r, plain, traced, edge0, edge1); err != nil {
			return nil, err
		}
	} else {
		cpu0, err := r.cpuMS()
		if err != nil {
			return nil, err
		}
		win, err := drive(ctx, conns, 0, dur)
		if err != nil {
			return nil, err
		}
		cpu1, err := r.cpuMS()
		if err != nil {
			return nil, err
		}
		rss, err := r.rssMB()
		if err != nil {
			return nil, err
		}
		if len(win.latMS) == 0 {
			return nil, errNoOps
		}
		wins = append(wins, win)
		lat := win.latencies(ms(sp.deadline))
		sort.Float64s(lat)
		if highestPercentile(len(lat), []float64{0.5, 0.9}) < 0.9 {
			fmt.Fprintf(os.Stderr, "perfbench: %d ops: p90 has fewer than %d samples beyond it\n", len(lat), minBeyond)
		}
		values["throughput_ops_s"] = float64(len(win.latMS)) / win.elapsed.Seconds()
		values["latency_p50_ms"] = quantile(lat, 0.5)
		values["latency_p90_ms"] = quantile(lat, 0.9)
		values["server_cpu_ms_per_op"] = (cpu1 - cpu0) / float64(win.attempted)
		values["setup_s"] = median(setupS)
		values["rss_mb"] = rss
	}

	// Checks run after the window, outside every timing.
	bad, err := w.verify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	calibAfter := calibrate()
	res := &result{Failed: bad, Metrics: map[string]metric{}}
	wrong := bad
	for _, win := range wins {
		res.Attempted += win.attempted
		res.Failed += win.failures
		wrong += win.wrong
	}
	res.Correct = wrong == 0
	defs := endToEnd
	if cfg.trace {
		values["host.calib_ms"] = (calibBefore + calibAfter) / 2
		defs = layerMetrics
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d failed, set-ups %.3v s, host calibration %.3f → %.3f ms\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, setupS, calibBefore, calibAfter)
	return res, nil
}

var errNoOps = errors.New("no op completed in the window")
