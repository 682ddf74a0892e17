package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestHalfPowMatchesPow pins floatNumeric.HalfPow to the expression it
// replaced, a·math.Pow(0.5, k), bit for bit: the halving table, its bound,
// the math.Pow fallback, the subnormal range from k = 1023 and the zero
// from k = 1075.
func TestHalfPowMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	as := []float64{0, 1, 3, 1000, 1<<53 - 1}
	for i := 0; i < 20; i++ {
		w := float64(1 + rng.Int63n(1<<20))
		as = append(as, w*float64(1+rng.Intn(5)), w*rng.Float64()/float64(1+rng.Intn(64)))
	}
	num := floatNumeric{}
	for _, a := range as {
		for k := 0; k <= 1100; k++ {
			got, want := num.HalfPow(a, k), a*math.Pow(0.5, float64(k))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("HalfPow(%v, %d) = %v, want %v", a, k, got, want)
			}
		}
	}
}
