package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"distcover"
	"distcover/internal/ring"
	"distcover/server/api"
)

// solve-cached: two coverd ring members at fixed loopback addresses, so
// ownership and the load split are identical on every run. Set-up solves
// cachedPerMember instances per member, each sent straight to its owner;
// the timed loop then requests them again in a fixed alternating order
// over one connection, again straight to the owner, so every op is a cache
// hit with zero ring hops. No solver work is timed: an op is request
// decode, the owner's ring-key check (which decodes and hashes the
// instance, before the job build does both again) and the response encode.
const (
	cachedPerMember = 32
	cachedDeadline  = 5 * time.Second
	// The pool is solved with the library defaults: the cache key covers
	// the options, but no solver runs in the timed loop, so the cheapest
	// solve keeps set-up short without changing what an op does.
	cachedOptions = `{}`
)

var ringMembers = [2]string{"127.0.0.1:39421", "127.0.0.1:39422"}

type solveCached struct {
	in      *solveInputs
	order   []int // request index per position of the alternating cycle
	owner   []int // member index per position
	members [2]*coverd
	setup0  map[int]answer // final set-up response per request index
	weight  map[int]int64
}

func newSolveCached(seed int64) (*solveCached, error) {
	w := &solveCached{in: newSolveInputs(seed, saltCached, cachedOptions)}
	rg, err := ring.New(ringMembers[:], 0)
	if err != nil {
		return nil, err
	}
	var own [2][]int
	for i := 0; len(own[0]) < cachedPerMember || len(own[1]) < cachedPerMember; i++ {
		inst, err := w.in.instance(i)
		if err != nil {
			return nil, err
		}
		m := 0
		if rg.Owner(inst.Hash()) == ringMembers[1] {
			m = 1
		}
		if len(own[m]) < cachedPerMember {
			own[m] = append(own[m], i)
		}
	}
	for j := 0; j < cachedPerMember; j++ {
		w.order = append(w.order, own[0][j], own[1][j])
		w.owner = append(w.owner, 0, 1)
	}
	return w, nil
}

func (w *solveCached) spec() spec {
	return spec{setups: 3, warmup: 8, deadline: cachedDeadline}
}

func (w *solveCached) setup(ctx context.Context, r *runner) error {
	list := ringMembers[0] + "," + ringMembers[1]
	for m, addr := range ringMembers {
		c, err := r.launch(addr, nil, "-ring", list, "-ring-self", addr)
		if err != nil {
			return err
		}
		w.members[m] = c
	}
	for _, c := range w.members {
		if err := c.waitHealthy(ctx); err != nil {
			return err
		}
		if err := checkRing(ctx, c); err != nil {
			return err
		}
	}
	// Both members solve their share concurrently, one request at a time
	// each.
	w.setup0, w.weight = map[int]answer{}, map[int]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for m := range w.members {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for p, i := range w.order {
				if w.owner[p] != m {
					continue
				}
				body, err := postJSON(ctx, w.members[m].url()+"/v1/solve", join(w.in.parts(i)))
				if err == nil {
					var wt int64
					if wt, err = scanInt(body, `"weight":`); err == nil {
						mu.Lock()
						w.setup0[i], w.weight[i] = answer{i, body}, wt
						mu.Unlock()
					}
				}
				if err != nil {
					errs[m] = fmt.Errorf("set-up solve %d on %s: %w", i, ringMembers[m], err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkRing confirms the member serves the fixed ring the inputs were
// partitioned for.
func checkRing(ctx context.Context, c *coverd) error {
	text, err := getText(ctx, c.url()+"/v1/ring")
	if err != nil {
		return err
	}
	var info api.RingInfo
	if err := json.Unmarshal([]byte(text), &info); err != nil {
		return err
	}
	if !info.Enabled || info.Self != c.addr || info.VNodes != ring.DefaultVNodes ||
		len(info.Members) != 2 || info.Members[0] != ringMembers[0] || info.Members[1] != ringMembers[1] {
		return fmt.Errorf("coverd %s serves ring %+v, want members %v", c.addr, info, ringMembers)
	}
	return nil
}

func (w *solveCached) conns() []*conn { return []*conn{newConn(w, cachedDeadline)} }

func (w *solveCached) op(k int) (string, [][]byte, error) {
	p := k % len(w.order)
	return w.members[w.owner[p]].url() + "/v1/solve", w.in.parts(w.order[p]), nil
}

func (w *solveCached) check(k int, body []byte) error {
	i := w.order[k%len(w.order)]
	if !bytes.Contains(body, []byte(`"cached":true`)) {
		return errors.New("cached solve missed the cache")
	}
	wt, err := scanInt(body, `"weight":`)
	if err != nil {
		return err
	}
	if wt != w.weight[i] {
		return fmt.Errorf("cached weight %d, set-up weight %d", wt, w.weight[i])
	}
	return nil
}

// verify checks the set-up answers the cache replays: each a valid cover
// of its instance with the paper's bound.
func (w *solveCached) verify() (int, error) {
	var errs []error
	for i, a := range w.setup0 {
		inst, err := w.in.instance(i)
		if err != nil {
			return 0, err
		}
		var res api.SolveResult
		if err = json.Unmarshal(a.body, &res); err == nil {
			err = checkCover(inst, &res, rank)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("set-up solve %d: %w", i, err))
		}
	}
	return len(errs), errors.Join(errs...)
}

// layers replays the first replaySample requests of the cycle through
// the owner's path: wire decode, the ring key (instance decode plus
// canonical hash, as solveKey computes it), the same two calls again as
// the job build repeats them, and the encode of the cached result.
func (w *solveCached) layers(ctx context.Context, l layers, _ *runner) error {
	s := samples{}
	for p := 0; p < replaySample; p++ {
		i := w.order[p]
		body := join(w.in.parts(i))
		var req api.SolveRequest
		if err := s.time("server.decode_ms", func() error { return json.Unmarshal(body, &req) }); err != nil {
			return err
		}
		if err := s.time("ring.key_ms", func() error {
			inst, err := distcover.ReadInstance(bytes.NewReader(req.Instance))
			if err == nil {
				inst.Hash()
			}
			return err
		}); err != nil {
			return err
		}
		var inst *distcover.Instance
		if err := s.time("hypergraph.decode_ms", func() (err error) {
			inst, err = distcover.ReadInstance(bytes.NewReader(req.Instance))
			return err
		}); err != nil {
			return err
		}
		s.time("hypergraph.hash_ms", func() error { inst.Hash(); return nil })
		var res api.SolveResult
		if err := json.Unmarshal(w.setup0[i].body, &res); err != nil {
			return err
		}
		res.Cached = true
		if err := s.time("api.encode_ms", func() error { _, err := json.Marshal(&res); return err }); err != nil {
			return err
		}
	}
	s.into(l)
	return nil
}

// scanInt reads the integer after the first occurrence of key in a JSON
// body without decoding the rest.
func scanInt(body []byte, key string) (int64, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no %s", key)
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	return strconv.ParseInt(string(rest[:j]), 10, 64)
}
