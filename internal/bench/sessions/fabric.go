package sessions

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"distcover"
	"distcover/internal/bench"
	"distcover/internal/cluster"
	"distcover/internal/core"
	"distcover/internal/durable"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// setupCounter is a coordinator-side Tracer that tallies the bytes of the
// setup-phase frame kinds (hello, setup, instance) — the wire cost of
// getting peers ready to solve, as opposed to the per-iteration exchange
// traffic. The per-kind split is what lets the suite distinguish "shipped
// the whole instance" from "shipped only its hash".
type setupCounter struct {
	mu     sync.Mutex
	byKind map[string]int64
}

func (c *setupCounter) Phase(int, string, time.Duration, time.Duration) {}
func (c *setupCounter) Exchange(string, string, int, time.Duration)     {}
func (c *setupCounter) Protocol(int, int64)                             {}

func (c *setupCounter) Frame(_, dir, kind string, bytes int) {
	if dir != telemetry.DirSent {
		return
	}
	switch kind {
	case "hello", "setup", "instance":
		c.mu.Lock()
		c.byKind[kind] += int64(bytes)
		c.mu.Unlock()
	}
}

func (c *setupCounter) setupBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKind["hello"] + c.byKind["setup"] + c.byKind["instance"]
}

func (c *setupCounter) instanceBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKind["instance"]
}

// sameResult checks the fields the cluster bit-identity claim covers.
func sameResult(a, b *core.Result) bool {
	if len(a.Cover) != len(b.Cover) {
		return false
	}
	for i := range a.Cover {
		if a.Cover[i] != b.Cover[i] {
			return false
		}
	}
	return a.CoverWeight == b.CoverWeight && a.DualValue == b.DualValue &&
		a.Iterations == b.Iterations
}

// MeasureFabric runs the E15 workload, gating the two durability-PR
// claims:
//
//  1. Instance fabric: a repeat cluster solve of an already-distributed
//     instance ships only the content hash during setup — at least 100×
//     fewer setup bytes than first contact, counted by a frame-level
//     tracer on the coordinator. The suite hard-fails below 100×.
//  2. WAL overhead: applying a session delta and logging it to the
//     write-ahead log (encode + append + flush, exactly what coverd does
//     per update) costs at most 10% over the bare in-memory apply. The
//     suite hard-fails above 1.10×.
func MeasureFabric(cfg bench.Config) ([]bench.Measurement, []bench.Table, error) {
	mode := pick(cfg, "full", "quick")
	name := pick(cfg, "fabric-100k", "fabric-10k")
	n := pick(cfg, 100_000, 10_000)
	baseM := pick(cfg, 200_000, 20_000)
	batches := pick(cfg, 6, 4)
	batchEdges := pick(cfg, 1_000, 200)
	prefix := mode + "/" + name

	g, err := hypergraph.UniformRandom(n, baseM, 3, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: fabric workload: %w", err)
	}

	t := bench.Table{
		ID:     "E15",
		Title:  "Instance fabric setup bytes and WAL update overhead",
		Header: []string{"leg", "reading", "note"},
	}

	// Leg 1: setup bytes, first contact vs repeat solve.
	peers, closePeers, err := startBenchPeers(2)
	if err != nil {
		return nil, nil, err
	}
	defer closePeers()
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, nil, 2)
	if err != nil {
		return nil, nil, err
	}
	tr := &setupCounter{byKind: map[string]int64{}}
	ccfg := cluster.Config{Peers: peers, Tracer: tr}
	first, err := cluster.Solve(g, opts, nil, ccfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: fabric first solve: %w", err)
	}
	if !sameResult(first, want) {
		return nil, nil, fmt.Errorf("bench: fabric cluster solve diverges from flat")
	}
	firstSetup := tr.setupBytes()
	firstInstance := tr.instanceBytes()
	if firstInstance == 0 {
		return nil, nil, fmt.Errorf("bench: first contact shipped no instance frame")
	}
	repeat, err := cluster.Solve(g, opts, nil, ccfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: fabric repeat solve: %w", err)
	}
	if !sameResult(repeat, want) {
		return nil, nil, fmt.Errorf("bench: fabric repeat solve diverges")
	}
	if tr.instanceBytes() != firstInstance {
		return nil, nil, fmt.Errorf("bench: repeat solve re-shipped the instance (%d extra bytes)",
			tr.instanceBytes()-firstInstance)
	}
	repeatSetup := tr.setupBytes() - firstSetup
	ratio := float64(firstSetup) / float64(repeatSetup)
	if ratio < 100 {
		return nil, nil, fmt.Errorf("bench: repeat setup shipped only %.1fx fewer bytes (%d vs %d), want ≥100x",
			ratio, firstSetup, repeatSetup)
	}
	t.AddRow("setup bytes, first contact", fmt.Sprintf("%d", firstSetup), "hello+setup+instance, 2 peers")
	t.AddRow("setup bytes, repeat solve", fmt.Sprintf("%d", repeatSetup), "hello+setup only — hash matched")
	t.AddRow("first/repeat ratio", fmt.Sprintf("%.0fx", ratio), "suite fails below 100x")

	// Leg 2: WAL overhead per session update. One flat session consumes a
	// delta stream; every batch is timed as two adjacent spans — the
	// in-memory apply, then the WAL record encode + append + flush —
	// which is exactly the sequence coverd's update handler runs. The
	// overhead ratio (apply+append over apply alone) is computed from the
	// same wall-clock samples, so scheduler noise hits both its numerator
	// and denominator and cannot manufacture a failure.
	inst, err := toInstance(g)
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "bench-fabric-wal-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	store, _, err := durable.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	instJSON, err := json.Marshal(inst)
	if err != nil {
		return nil, nil, err
	}
	if _, err := store.Append(durable.Record{
		Type: durable.RecCreate, ID: "bench", Options: []byte(`{}`), Instance: instJSON,
	}); err != nil {
		return nil, nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	sess, err := distcover.NewSession(inst, distcover.WithFlatEngine())
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	var applyTotal, appendTotal time.Duration
	for b := 0; b < batches; b++ {
		var d distcover.Delta
		for i := 0; i < batchEdges; i++ {
			d.Edges = append(d.Edges, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})
		}
		start := time.Now()
		if _, err := sess.Update(d); err != nil {
			return nil, nil, fmt.Errorf("bench: wal update batch %d: %w", b, err)
		}
		applied := time.Now()
		if _, err := store.Append(durable.Record{
			Type: durable.RecUpdate, ID: "bench", Delta: d,
		}); err != nil {
			return nil, nil, fmt.Errorf("bench: wal append batch %d: %w", b, err)
		}
		applyTotal += applied.Sub(start)
		appendTotal += time.Since(applied)
	}
	sol := sess.Solution()
	if sol.RatioBound > sess.CertifiedBound()*(1+1e-9) {
		return nil, nil, fmt.Errorf("bench: walled session breaks its certificate")
	}
	plainD, walD := applyTotal, applyTotal+appendTotal
	overhead := walD.Seconds() / plainD.Seconds()
	if overhead > 1.10 {
		return nil, nil, fmt.Errorf("bench: WAL update overhead %.3fx exceeds the 1.10x budget (append %v on top of apply %v)",
			overhead, appendTotal, applyTotal)
	}
	t.AddRow("session update, in-memory", fmt.Sprintf("%.2f ms", plainD.Seconds()*1000),
		fmt.Sprintf("apply spans over %d batches", batches))
	t.AddRow("session update + WAL append", fmt.Sprintf("%.2f ms", walD.Seconds()*1000),
		"encode + append + flush per batch")
	t.AddRow("WAL overhead", fmt.Sprintf("%.3fx", overhead), "suite fails above 1.10x")
	t.Notes = append(t.Notes,
		"setup bytes are counted by a frame-level tracer on the coordinator: hello + setup + instance frames, header included",
		"the WAL leg times exactly what coverd's update handler does per batch: apply, encode the delta record, append, flush",
	)

	ms := []bench.Measurement{
		// Frame sizes are deterministic for a fixed seed and protocol
		// version; the band only absorbs deliberate protocol evolution.
		{Name: prefix + "/setup-bytes-first", Value: float64(firstSetup), Unit: "bytes", Tolerance: 0.1},
		{Name: prefix + "/setup-bytes-repeat", Value: float64(repeatSetup), Unit: "bytes", Tolerance: 0.1},
		{Name: prefix + "/setup-bytes-ratio", Value: ratio, Unit: "x", HigherIsBetter: true, Tolerance: 0.5},
		{Name: prefix + "/update-plain/ns", Value: float64(plainD.Nanoseconds()), Unit: "ns", Tolerance: 0.75},
		{Name: prefix + "/update-wal/ns", Value: float64(walD.Nanoseconds()), Unit: "ns", Tolerance: 0.75},
		{Name: prefix + "/wal-overhead-ratio", Value: overhead, Unit: "x", Tolerance: 0.25},
	}
	return ms, []bench.Table{t}, nil
}

// FabricExperiment is the experiment adapter for MeasureFabric (E15).
func FabricExperiment(cfg bench.Config) ([]bench.Table, error) {
	_, tables, err := MeasureFabric(cfg)
	return tables, err
}
