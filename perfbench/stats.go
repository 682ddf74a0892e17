package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything: a p90 over 50 samples is the 5th-largest value, not
// a tail.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of percentile p (0 < p < 1)
// in n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return max(0, min(i, n-1))
}

// beyond is the number of samples strictly after percentile p's
// nearest-rank position in n sorted samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// highestPercentile returns the highest of the given ascending percentiles
// with at least minBeyond samples beyond it among n, or 0 when none has.
func highestPercentile(n int, ladder []float64) float64 {
	best := 0.0
	for _, p := range ladder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quantile returns the nearest-rank percentile p of xs, which must be
// sorted ascending and non-empty.
func quantile(xs []float64, p float64) float64 {
	return xs[rankIndex(len(xs), p)]
}

// median returns the median of xs (mean of the middle two for even
// lengths), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples collects replay measurements per per-layer metric name.
type samples map[string][]float64

// time runs fn once and records its wall time in ms under name.
func (s samples) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s[name] = append(s[name], ms(time.Since(t0)))
	return err
}

// into stores the median of every collected metric in l.
func (s samples) into(l layers) {
	for name, xs := range s {
		l[name] = median(xs)
	}
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
