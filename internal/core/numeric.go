package core

import (
	"math"
	"math/big"
)

// numeric abstracts the arithmetic the runner performs on bids and duals so
// the same code runs in fast float64 mode and in exact big.Rat mode. All
// operations are value-semantics: implementations must not mutate their
// inputs (rats are shared between edges and vertex sums).
type numeric[T any] interface {
	// FromRatio returns num/den exactly.
	FromRatio(num, den int64) T
	// FromFloat converts a float64 (exact in rat mode).
	FromFloat(f float64) T
	// Zero returns 0.
	Zero() T
	// Add returns a+b.
	Add(a, b T) T
	// Mul returns a·b.
	Mul(a, b T) T
	// HalfPow returns a·2^-k for k ≥ 0.
	HalfPow(a T, k int) T
	// Cmp compares: -1 if a < b, 0 if equal, +1 if a > b.
	Cmp(a, b T) int
	// Float converts to float64 for reporting.
	Float(a T) float64
	// IntegerAlpha reports whether α must be rounded up to an integer to
	// keep values as small rationals (true in exact mode).
	IntegerAlpha() bool
}

// floatNumeric is the fast default arithmetic. The frontier runner's
// kernels bind it statically, so its methods inline there.
type floatNumeric struct{}

var _ numeric[float64] = floatNumeric{}

func (floatNumeric) FromRatio(num, den int64) float64 { return float64(num) / float64(den) }
func (floatNumeric) FromFloat(f float64) float64      { return f }
func (floatNumeric) Zero() float64                    { return 0 }
func (floatNumeric) Add(a, b float64) float64         { return a + b }
func (floatNumeric) Mul(a, b float64) float64         { return a * b }
func (floatNumeric) IntegerAlpha() bool               { return false }

// HalfPow multiplies a by 2^-k. For k < 64 the factor comes from
// halfPowTab, which holds math.Pow(0.5, k) exactly, so both branches are
// the same IEEE multiply with the same operands.
func (floatNumeric) HalfPow(a float64, k int) float64 {
	if uint(k) < uint(len(halfPowTab)) {
		return a * halfPowTab[k]
	}
	return a * math.Pow(0.5, float64(k))
}

// halfPowTab[k] is 2^-k, written as literals so it costs no start-up work.
var halfPowTab = [64]float64{
	0x1p-0, 0x1p-1, 0x1p-2, 0x1p-3, 0x1p-4, 0x1p-5, 0x1p-6, 0x1p-7,
	0x1p-8, 0x1p-9, 0x1p-10, 0x1p-11, 0x1p-12, 0x1p-13, 0x1p-14, 0x1p-15,
	0x1p-16, 0x1p-17, 0x1p-18, 0x1p-19, 0x1p-20, 0x1p-21, 0x1p-22, 0x1p-23,
	0x1p-24, 0x1p-25, 0x1p-26, 0x1p-27, 0x1p-28, 0x1p-29, 0x1p-30, 0x1p-31,
	0x1p-32, 0x1p-33, 0x1p-34, 0x1p-35, 0x1p-36, 0x1p-37, 0x1p-38, 0x1p-39,
	0x1p-40, 0x1p-41, 0x1p-42, 0x1p-43, 0x1p-44, 0x1p-45, 0x1p-46, 0x1p-47,
	0x1p-48, 0x1p-49, 0x1p-50, 0x1p-51, 0x1p-52, 0x1p-53, 0x1p-54, 0x1p-55,
	0x1p-56, 0x1p-57, 0x1p-58, 0x1p-59, 0x1p-60, 0x1p-61, 0x1p-62, 0x1p-63,
}

func (floatNumeric) Cmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (floatNumeric) Float(a float64) float64 { return a }

// ratNumeric is the exact arithmetic used by property tests. Values are
// *big.Rat treated as immutable.
type ratNumeric struct {
	half *big.Rat
}

var _ numeric[*big.Rat] = ratNumeric{}

func newRatNumeric() ratNumeric {
	return ratNumeric{half: big.NewRat(1, 2)}
}

func (ratNumeric) FromRatio(num, den int64) *big.Rat { return big.NewRat(num, den) }

func (ratNumeric) FromFloat(f float64) *big.Rat {
	if r := new(big.Rat).SetFloat64(f); r != nil {
		return r
	}
	// NaN/Inf cannot occur for validated options; fall back to zero.
	return new(big.Rat)
}

func (ratNumeric) Zero() *big.Rat { return new(big.Rat) }

func (ratNumeric) Add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }

func (ratNumeric) Mul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

func (n ratNumeric) HalfPow(a *big.Rat, k int) *big.Rat {
	out := new(big.Rat).Set(a)
	for i := 0; i < k; i++ {
		out.Mul(out, n.half)
	}
	return out
}

func (ratNumeric) Cmp(a, b *big.Rat) int { return a.Cmp(b) }

func (ratNumeric) Float(a *big.Rat) float64 {
	f, _ := a.Float64()
	return f
}

func (ratNumeric) IntegerAlpha() bool { return true }
