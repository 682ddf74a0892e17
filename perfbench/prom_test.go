package main

import (
	"math"
	"strings"
	"testing"
)

// Excerpts in the shape coverd's /metrics renders them.
const promBefore = `# HELP coverd_cache_hits_total Solve requests served from the instance-result cache.
# TYPE coverd_cache_hits_total counter
coverd_cache_hits_total 10
coverd_solves_total{outcome="ok"} 4
coverd_solves_total{outcome="error"} 0
# TYPE coverd_job_queue_wait_seconds histogram
coverd_job_queue_wait_seconds_bucket{le="0.0005"} 3
coverd_job_queue_wait_seconds_bucket{le="+Inf"} 4
coverd_job_queue_wait_seconds_sum 0.002
coverd_job_queue_wait_seconds_count 4
coverd_ring_members 2
`

const promAfter = `coverd_cache_hits_total 25
coverd_solves_total{outcome="ok"} 9
coverd_solves_total{outcome="error"} 0
coverd_job_queue_wait_seconds_bucket{le="0.0005"} 3
coverd_job_queue_wait_seconds_bucket{le="+Inf"} 8
coverd_job_queue_wait_seconds_sum 0.014
coverd_job_queue_wait_seconds_count 8
coverd_ring_members 2
`

func mustParse(t *testing.T, text string) promScrape {
	t.Helper()
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPromCounterDelta(t *testing.T) {
	before, after := mustParse(t, promBefore), mustParse(t, promAfter)
	for series, want := range map[string]float64{
		"coverd_cache_hits_total":              15,
		`coverd_solves_total{outcome="ok"}`:    5,
		`coverd_solves_total{outcome="error"}`: 0,
		"coverd_ring_members":                  0,
		"coverd_never_exposed_total":           0,
	} {
		got, err := delta(before, after, series)
		if err != nil || got != want {
			t.Errorf("delta(%s) = %g, %v; want %g", series, got, err, want)
		}
	}
	if _, err := delta(before, mustParse(t, "coverd_new_total 1\n"), "coverd_new_total"); err == nil {
		t.Error("a series present in only one scrape must be an error")
	}
}

func TestPromHistogramMean(t *testing.T) {
	before, after := mustParse(t, promBefore), mustParse(t, promAfter)
	mean, count, err := histMean(before, after, "coverd_job_queue_wait_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 || math.Abs(mean-0.003) > 1e-12 {
		t.Errorf("histMean = %g over %g, want 0.003 over 4", mean, count)
	}
	// No observations in the window: the mean of nothing reads 0.
	if mean, count, err := histMean(after, after, "coverd_job_queue_wait_seconds"); err != nil || mean != 0 || count != 0 {
		t.Errorf("empty window: histMean = %g over %g, %v", mean, count, err)
	}
}

func TestPromSumAcrossProcesses(t *testing.T) {
	sum := make(promScrape)
	sum.add(mustParse(t, promBefore))
	sum.add(mustParse(t, promAfter))
	if got := sum["coverd_cache_hits_total"]; got != 35 {
		t.Errorf("summed hits = %g, want 35", got)
	}
}

func TestPromMalformed(t *testing.T) {
	for _, text := range []string{"coverd_cache_hits_total\n", "coverd_cache_hits_total ten\n"} {
		if _, err := parseProm(text); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("parseProm(%q) = %v, want a line-1 error", text, err)
		}
	}
}
