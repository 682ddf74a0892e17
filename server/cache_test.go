package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"distcover/server/api"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &api.SolveResult{Weight: 1})
	c.put("b", &api.SolveResult{Weight: 2})
	if c.get("a") == nil {
		t.Fatal("a should be cached")
	}
	// a is now most recent; inserting c must evict b.
	c.put("c", &api.SolveResult{Weight: 3})
	if c.get("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("a and c should remain")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestCacheCopiesResults(t *testing.T) {
	c := newResultCache(4)
	orig := &api.SolveResult{Weight: 7, ElapsedMS: 3.5}
	c.put("k", orig)
	orig.Weight = 999 // caller mutation must not leak into the cache

	got := c.get("k")
	if got == nil {
		t.Fatal("missing entry")
	}
	if got.Weight != 7 {
		t.Fatalf("cached value mutated: weight %d", got.Weight)
	}
	if !got.Cached || got.ElapsedMS != 0 {
		t.Fatalf("cache hit should set Cached and zero ElapsedMS: %+v", got)
	}
	got.Weight = 123
	if again := c.get("k"); again.Weight != 7 {
		t.Fatal("mutating a returned result must not affect the cache")
	}
}

// TestCacheDeepCopiesNestedState is the regression test for the aliasing
// bug where get/put copied only the top-level struct: the cached entry
// shared Cover, X and the Congest pointer with every copy handed out, so a
// caller mutating a returned result corrupted the cache for all future
// hits. Run under -race this also proves hits share no mutable state.
func TestCacheDeepCopiesNestedState(t *testing.T) {
	c := newResultCache(4)
	orig := &api.SolveResult{
		Cover:   []int{1, 2, 3},
		X:       []int64{0, 1, 0},
		Weight:  9,
		Congest: &api.CongestInfo{Rounds: 7, Messages: 40},
	}
	c.put("k", orig)
	// Mutating what was handed to put must not reach the cache.
	orig.Cover[0] = 99
	orig.X[2] = 99
	orig.Congest.Rounds = 99

	got := c.get("k")
	if got.Cover[0] != 1 || got.X[2] != 0 || got.Congest.Rounds != 7 {
		t.Fatalf("put did not deep-copy: %+v congest=%+v", got, got.Congest)
	}
	// Mutating a returned hit must not reach the cache either.
	got.Cover[0] = -1
	got.X[0] = -1
	got.Congest.Messages = -1
	again := c.get("k")
	if again.Cover[0] != 1 || again.X[0] != 0 || again.Congest.Messages != 40 {
		t.Fatalf("get did not deep-copy: %+v congest=%+v", again, again.Congest)
	}
	if again.Congest == got.Congest {
		t.Fatal("hits share the Congest pointer")
	}
	// Concurrent hits each mutating their own copy: -race flags any sharing.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := c.get("k")
			r.Cover[0] = i
			r.X[0] = int64(i)
			r.Congest.Rounds = i
		}(i)
	}
	wg.Wait()
	if final := c.get("k"); final.Cover[0] != 1 || final.Congest.Rounds != 7 {
		t.Fatalf("concurrent mutations leaked into the cache: %+v", final)
	}
}

// TestCacheCoverRoundTrip checks that a cover packed into the cache comes
// back as it went in, whatever its order, and that an ILP result's X is
// stored untouched beside it.
func TestCacheCoverRoundTrip(t *testing.T) {
	c := newResultCache(8)
	covers := map[string][]int{
		"ascending": {0, 1, 2, 63, 64, 65, 8191, 8192, 1 << 40},
		"unsorted":  {9, 3, 70000, 0, 5, 5, 1 << 33, 2},
		"empty":     {},
		"nil":       nil,
	}
	for name, cover := range covers {
		c.put(name, &api.SolveResult{Cover: cover, Weight: 4, InstanceHash: name})
		got := c.get(name)
		if !slices.Equal(got.Cover, cover) || got.Weight != 4 || got.InstanceHash != name {
			t.Errorf("%s: got cover %v weight %d hash %q, want %v 4 %q", name, got.Cover, got.Weight, got.InstanceHash, cover, name)
		}
	}
	ilp := &api.SolveResult{X: []int64{0, 3, 1}, Value: 7}
	c.put("ilp", ilp)
	if got := c.get("ilp"); got.Cover != nil || !slices.Equal(got.X, ilp.X) || got.Value != 7 {
		t.Fatalf("ilp: got cover %v x %v value %d, want no cover, x %v value 7", got.Cover, got.X, got.Value, ilp.X)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := newResultCache(2)
	c.put("k", &api.SolveResult{Weight: 1})
	c.put("k", &api.SolveResult{Weight: 2})
	if c.len() != 1 {
		t.Fatalf("duplicate key should overwrite, len = %d", c.len())
	}
	if got := c.get("k"); got.Weight != 2 {
		t.Fatalf("weight = %d, want 2", got.Weight)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("k", &api.SolveResult{Weight: 1})
	if c.get("k") != nil {
		t.Fatal("disabled cache should never hit")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				c.put(key, &api.SolveResult{Weight: int64(i)})
				c.get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.len())
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := api.SolveOptions{Epsilon: 0.5}
	variants := []api.SolveOptions{
		{Epsilon: 0.25},
		{Epsilon: 0.5, FApprox: true},
		{Epsilon: 0.5, SingleLevel: true},
		{Epsilon: 0.5, LocalAlpha: true},
		{Epsilon: 0.5, Alpha: 4},
		{Epsilon: 0.5, MaxIterations: 9},
		{Epsilon: 0.5, Engine: api.EngineCongest},
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d fingerprint collides: %s", i, fp)
		}
		seen[fp] = true
	}
	// NoCache and the congest engine flavor must NOT change the identity.
	if fp := (api.SolveOptions{Epsilon: 0.5, NoCache: true}).Fingerprint(); fp != base.Fingerprint() {
		t.Error("NoCache changed the fingerprint")
	}
	par := api.SolveOptions{Epsilon: 0.5, Engine: api.EngineCongestParallel}.Fingerprint()
	seq := api.SolveOptions{Epsilon: 0.5, Engine: api.EngineCongest}.Fingerprint()
	if par != seq {
		t.Error("in-memory congest engine flavors should share a cache identity")
	}
	// The TCP engine reports WireBytes, so it must not share results with
	// the in-memory engines.
	tcp := api.SolveOptions{Epsilon: 0.5, Engine: api.EngineCongestTCP}.Fingerprint()
	if tcp == seq {
		t.Error("congest-tcp must have its own cache identity (WireBytes)")
	}
}
