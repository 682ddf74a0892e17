package core

import (
	"errors"
	"testing"
	"testing/quick"

	"distcover/internal/hypergraph"
)

func TestInvariantsHoldAcrossConfigurations(t *testing.T) {
	tests := []struct {
		name string
		opts Options
	}{
		{"float default", func() Options { o := DefaultOptions(); o.CheckInvariants = true; return o }()},
		{"exact default", func() Options {
			o := DefaultOptions()
			o.CheckInvariants = true
			o.Exact = true
			return o
		}()},
		{"exact single-level", func() Options {
			o := DefaultOptions()
			o.CheckInvariants = true
			o.Exact = true
			o.Variant = VariantSingleLevel
			return o
		}()},
		{"float local alpha small eps", func() Options {
			o := DefaultOptions()
			o.CheckInvariants = true
			o.Alpha = AlphaLocal
			o.Epsilon = 0.05
			return o
		}()},
		{"exact fixed alpha", func() Options {
			o := DefaultOptions()
			o.CheckInvariants = true
			o.Exact = true
			o.Alpha = AlphaFixed
			o.FixedAlpha = 8
			return o
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			nInst := 6
			if tt.opts.Exact {
				nInst = 3 // big.Rat runs are slower
			}
			for seed := int64(0); seed < int64(nInst); seed++ {
				g, err := hypergraph.UniformRandom(30, 60, 3, hypergraph.GenConfig{
					Seed: seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 12,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(g, tt.opts, nil); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestInvariantsHoldOnAdversarialShapes(t *testing.T) {
	opts := DefaultOptions()
	opts.CheckInvariants = true
	opts.Exact = true
	builds := []struct {
		name  string
		build func() (*hypergraph.Hypergraph, error)
	}{
		{"star", func() (*hypergraph.Hypergraph, error) { return hypergraph.Star(32, 3, 7) }},
		{"lollipop", func() (*hypergraph.Hypergraph, error) { return hypergraph.Lollipop(64, 1<<16) }},
		{"complete", func() (*hypergraph.Hypergraph, error) { return hypergraph.CompleteGraph(12) }},
		{"singletons", func() (*hypergraph.Hypergraph, error) {
			return hypergraph.New([]int64{1, 1 << 20}, [][]hypergraph.VertexID{{0}, {1}})
		}},
	}
	for _, tt := range builds {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(g, opts, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInvariantsPropertyFloat(t *testing.T) {
	opts := DefaultOptions()
	opts.CheckInvariants = true
	prop := func(seed int64, nRaw, fRaw uint8) bool {
		n := int(nRaw%40) + 2
		f := int(fRaw%4) + 1
		if f > n {
			f = n
		}
		g, err := hypergraph.UniformRandom(n, 2*n, f, hypergraph.GenConfig{
			Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
		})
		if err != nil {
			return false
		}
		_, err = Run(g, opts, nil)
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCheckerDetectsCorruption corrupts runner state directly and asserts
// every class of violation is caught — the checker itself is load-bearing
// for the other tests, so it must not silently pass on bad state. The
// ranged rows check a partition's view: a violation is reported by the
// range owning the corrupted vertex (or the edge's minimum vertex), and
// only by it.
func TestCheckerDetectsCorruption(t *testing.T) {
	g := hypergraph.MustNew([]int64{4, 4, 4},
		[][]hypergraph.VertexID{{0, 1}, {1, 2}})
	num := floatNumeric{}
	fresh := func() *state[float64] {
		st := &state[float64]{
			num:      num,
			g:        g,
			opts:     DefaultOptions(),
			bid:      make([]float64, 2),
			delta:    make([]float64, 2),
			covered:  make([]bool, 2),
			alphaE:   make([]float64, 2),
			level:    make([]int, 3),
			sumDelta: make([]float64, 3),
			sumBid:   make([]float64, 3),
			alphaV:   make([]float64, 3),
			inCover:  make([]bool, 3),
			doneV:    make([]bool, 3),
			uncovDeg: []int{1, 2, 1},
			inc:      make([]int, 3),
			raise:    make([]bool, 3),
			joined:   make([]bool, 3),
			wT:       []float64{4, 4, 4},
			fWT:      []float64{8, 8, 8},
			fPlusEps: 3,
		}
		st.resolveAlphas(2, 1)
		return st
	}
	tests := []struct {
		name    string
		corrupt func(*state[float64])
		lo, hi  int  // checked vertex range; 0, 0 means the whole instance
		outside bool // the corruption lies outside the range: must pass
	}{
		{name: "packing violation", corrupt: func(st *state[float64]) { st.sumDelta[1] = 5 }},
		{name: "bid-sum violation", corrupt: func(st *state[float64]) { st.sumBid[0] = 3 }},
		{name: "level cap violation", corrupt: func(st *state[float64]) { st.level[2] = 99 }},
		{name: "negative dual", corrupt: func(st *state[float64]) { st.delta[0] = -1 }},
		{name: "level floor violation", corrupt: func(st *state[float64]) {
			st.level[0] = 1
			st.sumDelta[0] = 0.1 // far below w(1-1/2) = 2
		}},
		{name: "packing violation in range", corrupt: func(st *state[float64]) { st.sumDelta[1] = 5 }, lo: 1, hi: 3},
		{name: "packing violation out of range", corrupt: func(st *state[float64]) { st.sumDelta[1] = 5 }, lo: 0, hi: 1, outside: true},
		{name: "level cap violation in range", corrupt: func(st *state[float64]) { st.level[2] = 99 }, lo: 2, hi: 3},
		{name: "level cap violation out of range", corrupt: func(st *state[float64]) { st.level[2] = 99 }, lo: 0, hi: 2, outside: true},
		// Edge 0 = {0, 1} is owned by the range holding vertex 0; the range
		// holding only its other member must not report it.
		{name: "negative owned dual", corrupt: func(st *state[float64]) { st.delta[0] = -1 }, lo: 0, hi: 1},
		{name: "negative dual owned elsewhere", corrupt: func(st *state[float64]) { st.delta[0] = -1 }, lo: 1, hi: 3, outside: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lo, hi := tt.lo, tt.hi
			if hi == 0 {
				hi = g.NumVertices()
			}
			st := fresh()
			if err := st.checkInvariants(1, ZLevels(2, 1), lo, hi); err != nil {
				t.Fatalf("clean state flagged: %v", err)
			}
			tt.corrupt(st)
			err := st.checkInvariants(1, ZLevels(2, 1), lo, hi)
			switch {
			case tt.outside && err != nil:
				t.Errorf("corruption outside [%d, %d) reported: %v", lo, hi, err)
			case !tt.outside && !errors.Is(err, ErrInvariantViolated):
				t.Errorf("corruption in [%d, %d) not detected: %v", lo, hi, err)
			}
		})
	}
}
