// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts: Table 1 (distributed MWVC algorithms) and Table 2
// (distributed MWHVC algorithms) as *measured* round counts and
// approximation ratios, plus the theorem-shape and throughput experiments
// E1–E17 indexed by Registry (run `benchharness -list`; E12 and E14–E16
// live in the sessions subpackage). Each experiment returns printable
// tables consumed by cmd/benchharness and by the root-level benchmarks.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config parameterizes an experiment run.
type Config struct {
	// Quick shrinks the sweeps to test/CI scale (seconds, not minutes).
	Quick bool
	// Seed makes workload generation deterministic (0 is a valid seed).
	Seed int64
	// Workers overrides the worker-count sweep of the scaling suite (E17);
	// empty uses the default 1/2/4/8 (benchharness -workers).
	Workers []int
}

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment id (T1, T2, E1..E17).
	ID string
	// Title describes what the table reproduces.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes carries the shape checks and paper references.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]Table, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Table 1: distributed MWVC algorithms (f=2), measured", Run: Table1},
		{ID: "T2", Title: "Table 2: distributed MWHVC algorithms, measured", Run: Table2},
		{ID: "E1", Title: "Rounds vs Δ (Theorem 9 / Corollary 11 shape)", Run: RoundsVsDelta},
		{ID: "E2", Title: "Rounds vs weight spread W (weight independence)", Run: RoundsVsW},
		{ID: "E3", Title: "Approximation ratio vs the (f+ε) guarantee", Run: ApproxRatio},
		{ID: "E4", Title: "f-approximation mode: rounds vs n (Corollary 10)", Run: FApproxRounds},
		{ID: "E5", Title: "Covering ILPs via the Theorem 19 pipeline", Run: ILPPipeline},
		{ID: "E6", Title: "Appendix C variant: iterations and level increments", Run: VariantComparison},
		{ID: "E7", Title: "α ablation (Theorem 8: log_α Δ + f·z·α)", Run: AlphaAblation},
		{ID: "E8", Title: "CONGEST conformance: message sizes and round formula", Run: MessageSize},
		{ID: "E9", Title: "Shrinking ε (Corollaries 11 and 12)", Run: EpsilonRange},
		{ID: "E10", Title: "Local α(e): no global knowledge of Δ (Theorem 9 remark)", Run: LocalAlpha},
		{ID: "E11", Title: "Engine throughput: sequential reference vs sharded worker pool", Run: EngineThroughput},
		{ID: "E13", Title: "Direct solver throughput: chunk-parallel flat runner vs sharded CONGEST", Run: FlatThroughput},
		{ID: "E17", Title: "Multicore scaling: flat runner worker sweep with speedup gate", Run: FlatScaling},
	}
}

// Run executes one experiment by id ("all" runs everything).
func Run(id string, cfg Config) ([]Table, error) {
	if strings.EqualFold(id, "all") {
		var out []Table
		for _, exp := range Registry() {
			tables, err := exp.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", exp.ID, err)
			}
			out = append(out, tables...)
		}
		return out, nil
	}
	for _, exp := range Registry() {
		if strings.EqualFold(exp.ID, id) {
			return exp.Run(cfg)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var ids []string
	for _, exp := range Registry() {
		ids = append(ids, exp.ID)
	}
	sort.Strings(ids)
	return ids
}

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtI formats an int.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }

// fmtI64 formats an int64.
func fmtI64(v int64) string { return fmt.Sprintf("%d", v) }
