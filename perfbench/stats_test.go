package main

import "testing"

func TestBeyondRule(t *testing.T) {
	ladder := []float64{0.5, 0.9, 0.99}
	for _, c := range []struct {
		n       int
		p       float64
		beyond  int
		highest float64
	}{
		{n: 1000, p: 0.99, beyond: 10, highest: 0.99},
		{n: 999, p: 0.99, beyond: 9, highest: 0.9},
		{n: 100, p: 0.9, beyond: 10, highest: 0.9},
		{n: 99, p: 0.9, beyond: 9, highest: 0.5},
		{n: 20, p: 0.5, beyond: 10, highest: 0.5},
		{n: 19, p: 0.5, beyond: 9, highest: 0},
		{n: 0, p: 0.5, beyond: 0, highest: 0},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := highestPercentile(c.n, ladder); got != c.highest {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.highest)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.001: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", c.xs)
			}
		}
	}
}
