// Command benchharness regenerates the paper's evaluation artifacts: the
// measured versions of Table 1 and Table 2 and the theorem-shape
// experiments E1–E17 (run with -list for the index).
//
// Usage:
//
//	benchharness [-exp all|T1|T2|E1..E17] [-quick] [-seed N] [-list]
//	             [-json file] [-baseline file] [-writebaseline file]
//	             [-tol frac] [-portable] [-suite names] [-workers list]
//	             [-cpuprofile file] [-memprofile file] [-trace]
//
// Full sweeps take a few minutes; -quick shrinks them to seconds. With
// -json the results are additionally written to the given file as
// machine-readable JSON (e.g. BENCH_results.json), so successive runs can
// be diffed to track the performance trajectory across changes.
//
// -baseline re-measures the selected measurement suites (engine
// throughput, flat-runner throughput, incremental sessions, cluster
// solves, allocation counts — see -suite) and compares the readings against the committed
// baseline file, exiting non-zero when any regresses beyond -tol
// (default: the baseline's own tolerance). -portable restricts the
// comparison to machine-independent readings (rounds, message counts,
// iteration counts, speedup ratios, exact allocation counts), skipping
// raw wall-clock ns — this is what CI's bench job runs, because its
// runners are not the machine the committed baseline was recorded on.
// -writebaseline measures and merges the readings into the given file, so
// one full run and one -quick run accumulate both modes into
// BENCH_baseline.json.
//
// -cpuprofile and -memprofile write pprof profiles covering the measured
// work (the heap profile is taken after the run), so a CI bench job can
// archive profiles alongside the readings and a regression can be
// diagnosed from the artifacts without re-running locally. For an
// always-on view of the same hot paths on a running daemon, coverd
// exposes the equivalent live handlers behind its -pprof flag.
//
// -trace runs one representative flat solve on the allocation-gate
// fixture with the telemetry layer attached and prints the trace report
// (per-iteration vertex/edge/gather timings, chunk imbalance) as JSON —
// the command-line view of what coverd returns for "trace":true.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"distcover/internal/bench"
	"distcover/internal/bench/sessions"
)

// startProfiles begins CPU profiling and arranges the heap snapshot; the
// returned stop function finalizes both and is safe to call when neither
// profile was requested. Profile-write failures are reported on stderr
// rather than failing the run — the readings are the product, the
// profiles are diagnostics.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchharness: -cpuprofile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "benchharness: wrote %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchharness: -memprofile:", err)
				return
			}
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchharness: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchharness: -memprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "benchharness: wrote %s\n", memPath)
		}
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment id (all, T1, T2, E1..E17)")
		quick      = flag.Bool("quick", false, "shrink sweeps to smoke-test scale")
		seed       = flag.Int64("seed", 42, "workload generation seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonPath   = flag.String("json", "", "also write results as JSON to this file (e.g. BENCH_results.json)")
		baseline   = flag.String("baseline", "", "compare engine-throughput readings against this baseline file; exit 1 on regression")
		writeBase  = flag.String("writebaseline", "", "measure engine throughput and merge the readings into this baseline file")
		tol        = flag.Float64("tol", 0, "regression tolerance as a fraction; >0 overrides the baseline's default and per-entry tolerances (0 = use them)")
		portable   = flag.Bool("portable", false, "with -baseline: compare only machine-independent readings (rounds, messages, iteration counts, speedup ratios, alloc counts), skipping raw ns — for CI runners whose hardware differs from the baseline machine")
		suites     = flag.String("suite", "engines,flat,sessions,cluster,allocs,fabric,relay,scaling", "with -baseline/-writebaseline: comma-separated measurement suites to run (engines = E11 throughput, flat = E13 direct solver, sessions = E12 incremental, cluster = E14 multi-process, allocs = hot-path allocation counts, fabric = E15 instance fabric + WAL overhead, relay = E16 fan-out relay handshake floor, scaling = E17 flat worker sweep)")
		workersArg = flag.String("workers", "", "worker-count sweep for the scaling suite / E17, comma-separated (default 1,2,4,8)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the measured work to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
		traceRun   = flag.Bool("trace", false, "run one flat solve of the alloc-gate fixture with telemetry attached and print its trace report as JSON")
	)
	flag.Parse()
	if *traceRun {
		rep, err := sessions.TraceProbe()
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-3s %s\n", "E12", "Incremental sessions: residual re-solve vs from-scratch (lives outside the bench registry; see -suite)")
		fmt.Printf("%-3s %s\n", "E14", "Multi-process cover cluster vs single-process flat (lives outside the bench registry; see -suite)")
		fmt.Printf("%-3s %s\n", "E15", "Instance fabric setup bytes + WAL update overhead (lives outside the bench registry; see -suite)")
		fmt.Printf("%-3s %s\n", "E16", "Relay concurrency: fan-out cluster relay under handshake latency (lives outside the bench registry; see -suite)")
		return nil
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	cfg := bench.Config{Quick: *quick, Seed: *seed}
	if *workersArg != "" {
		for _, part := range strings.Split(*workersArg, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			w, err := strconv.Atoi(part)
			if err != nil || w < 1 {
				return fmt.Errorf("-workers: bad worker count %q", part)
			}
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	if *baseline != "" || *writeBase != "" {
		// Baseline mode runs the measurement suites only; -exp does not
		// apply (run the command again without -baseline for other tables).
		return runBaseline(cfg, *baseline, *writeBase, *jsonPath, *tol, *portable, *suites)
	}
	var tables []bench.Table
	// E12 imports the public session API and therefore lives outside the
	// bench registry (import cycle with the root package's tests).
	switch {
	case strings.EqualFold(*exp, "E12"):
		tables, err = sessions.IncrementalSessions(cfg)
	case strings.EqualFold(*exp, "E14"):
		tables, err = sessions.ClusterExperiment(cfg)
	case strings.EqualFold(*exp, "E15"):
		tables, err = sessions.FabricExperiment(cfg)
	case strings.EqualFold(*exp, "E16"):
		tables, err = sessions.RelayExperiment(cfg)
	case strings.EqualFold(*exp, "all"):
		tables, err = bench.Run(*exp, cfg)
		if err == nil {
			var extra []bench.Table
			extra, err = sessions.IncrementalSessions(cfg)
			tables = append(tables, extra...)
		}
		if err == nil {
			var extra []bench.Table
			extra, err = sessions.ClusterExperiment(cfg)
			tables = append(tables, extra...)
		}
		if err == nil {
			var extra []bench.Table
			extra, err = sessions.FabricExperiment(cfg)
			tables = append(tables, extra...)
		}
		if err == nil {
			var extra []bench.Table
			extra, err = sessions.RelayExperiment(cfg)
			tables = append(tables, extra...)
		}
	default:
		tables, err = bench.Run(*exp, cfg)
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *exp, *quick, *seed, tables); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(os.Stderr, "benchharness: wrote %s\n", *jsonPath)
	}
	return nil
}

// runBaseline measures the selected suites and either merges the readings
// into a baseline file (-writebaseline) or compares against one
// (-baseline), returning an error — non-zero exit — on any regression.
func runBaseline(cfg bench.Config, comparePath, writePath, jsonPath string, tol float64, portable bool, suites string) error {
	type suite struct {
		name string
		run  func(bench.Config) ([]bench.Measurement, []bench.Table, error)
	}
	known := map[string]func(bench.Config) ([]bench.Measurement, []bench.Table, error){
		"engines":  bench.MeasureEngines,
		"flat":     bench.MeasureFlat,
		"sessions": sessions.MeasureIncremental,
		"cluster":  sessions.MeasureCluster,
		"allocs":   sessions.MeasureAllocs,
		"fabric":   sessions.MeasureFabric,
		"relay":    sessions.MeasureRelay,
		"scaling":  bench.MeasureScaling,
	}
	var selected []suite
	for _, name := range strings.Split(suites, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		run, ok := known[name]
		if !ok {
			return fmt.Errorf("-suite: unknown suite %q (have engines, flat, sessions, cluster, allocs, fabric, relay, scaling)", name)
		}
		selected = append(selected, suite{name: name, run: run})
	}
	if len(selected) == 0 {
		return fmt.Errorf("-suite: no suites selected")
	}
	var ms []bench.Measurement
	var tables []bench.Table
	for _, s := range selected {
		sms, stables, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("suite %s: %w", s.name, err)
		}
		ms = append(ms, sms...)
		tables = append(tables, stables...)
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, "E11", cfg.Quick, cfg.Seed, tables); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(os.Stderr, "benchharness: wrote %s\n", jsonPath)
	}
	if writePath != "" {
		b := &bench.Baseline{Tolerance: 0.20}
		if prev, err := bench.ReadBaseline(writePath); err == nil {
			b = prev
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("-writebaseline: %w", err)
		}
		b.Merge(ms)
		if err := bench.WriteBaseline(writePath, b); err != nil {
			return fmt.Errorf("-writebaseline: %w", err)
		}
		fmt.Fprintf(os.Stderr, "benchharness: wrote %s (%d measurements)\n", writePath, len(b.Measurements))
	}
	if comparePath != "" {
		b, err := bench.ReadBaseline(comparePath)
		if err != nil {
			return fmt.Errorf("-baseline: %w", err)
		}
		cur := ms
		if portable {
			cur = cur[:0:0]
			for _, m := range ms {
				if m.Unit != "ns" {
					cur = append(cur, m)
				}
			}
		}
		results, skipped := bench.Compare(b, cur, tol)
		// The inverse direction matters too: a current reading with no
		// baseline entry (a newly added workload or engine) is ungated, so
		// force the baseline refresh instead of passing green around it.
		inBase := make(map[string]bool, len(b.Measurements))
		for _, m := range b.Measurements {
			inBase[m.Name] = true
		}
		var unmatched []string
		for _, m := range cur {
			if !inBase[m.Name] {
				unmatched = append(unmatched, m.Name)
			}
		}
		if len(unmatched) > 0 {
			return fmt.Errorf("%d measurement(s) have no entry in %s (refresh it with -writebaseline): %s",
				len(unmatched), comparePath, strings.Join(unmatched, ", "))
		}
		for _, r := range results {
			status := "ok"
			if r.Regressed {
				status = "REGRESSED"
			}
			fmt.Printf("%-60s baseline %12.4g  current %12.4g  %s\n", r.Name, r.Baseline, r.Current, status)
		}
		if len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "benchharness: %d baseline entries not re-measured in this mode (skipped)\n", len(skipped))
		}
		if regs := bench.Regressions(results); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "benchharness: regression:", r)
			}
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(regs), comparePath)
		}
		// A gate that compared nothing protects nothing: this happens when
		// measurement names drift from the committed baseline (e.g. a
		// renamed workload), and must fail loudly instead of passing green.
		if len(results) == 0 {
			return fmt.Errorf("no baseline entries matched the current measurements (%d skipped) — refresh %s with -writebaseline", len(skipped), comparePath)
		}
		fmt.Fprintf(os.Stderr, "benchharness: no regressions vs %s (%d compared)\n", comparePath, len(results))
	}
	return nil
}

// jsonResults is the machine-readable result file schema. Experiments
// reuses bench.Table verbatim (ID, Title, Header, Rows, Notes), so every
// cell printed by the text renderer is present for tooling to parse.
type jsonResults struct {
	Experiment  string        `json:"experiment"`
	Quick       bool          `json:"quick"`
	Seed        int64         `json:"seed"`
	Experiments []bench.Table `json:"experiments"`
}

func writeJSON(path, exp string, quick bool, seed int64, tables []bench.Table) error {
	data, err := json.MarshalIndent(jsonResults{
		Experiment:  exp,
		Quick:       quick,
		Seed:        seed,
		Experiments: tables,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
