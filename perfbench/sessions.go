package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distcover"
	"distcover/internal/durable"
	"distcover/internal/ring"
	"distcover/server/api"
)

// session-update: two coverd ring members sharing a -wal-dir root, each
// pinned to one core. Set-up creates one durable session per member from
// the same n=20,000, m=40,000 instance. Two connections, one per
// session, each send the session's fixed delta sequence to the member that
// does not own it, so every update is forwarded exactly one hop. This is
// the write path: ring forwarding, the session and commit locks, Extend
// with its incremental hash, the residual re-solve, the WAL append and the
// O(n) session-state response. It decodes no instance.
const (
	sessionDeadline = 5 * time.Second
	// deltasPerSecond bounds the pre-encoded delta sequence per connection,
	// about 30 times today's rate: a run fails rather than repeat a delta
	// if updates ever get this fast.
	deltasPerSecond = 2000
	// The periodic snapshot interval is far beyond any run, so every timed
	// window holds the same number of snapshots: none.
	snapshotInterval = "1h"
)

var errExhausted = errors.New("delta sequence exhausted: updates completed faster than deltasPerSecond")

type sessionUpdate struct {
	baseW  []int64
	baseE  [][]int
	create []byte
	bodies [2][][]byte // per connection: the encoded delta sequence

	members [2]*coverd
	ids     [2]string // ids[m] is owned by member m
	last    [2][]byte // latest update response per connection
}

func newSessionUpdate(seed int64, seconds float64, windows int) *sessionUpdate {
	r := newRand(seed, saltSession)
	w := &sessionUpdate{baseW: genWeights(r, sessionN), baseE: genEdges(r, sessionN, sessionM, rank)}
	w.create = append(append([]byte(`{"options":{},"instance":`), instanceJSON(w.baseW, w.baseE)...), '}')
	count := int(seconds*deltasPerSecond)*windows + 64
	for c := range w.bodies {
		dr := newRand(seed, saltDelta+int64(c))
		n := sessionN
		for k := 0; k < count; k++ {
			w.bodies[c] = append(w.bodies[c], deltaJSON(genDelta(dr, n)))
			n += deltaVertices
		}
	}
	return w
}

// delta decodes connection c's k-th delta for the in-process mirror and
// replays.
func (w *sessionUpdate) delta(c, k int) (distcover.Delta, error) {
	var d distcover.Delta
	err := json.Unmarshal(w.bodies[c][k], &d)
	return d, err
}

func (w *sessionUpdate) spec() spec {
	return spec{setups: 3, warmup: 4, deadline: sessionDeadline}
}

func (w *sessionUpdate) setup(ctx context.Context, r *runner) error {
	root, err := r.freshDir("wal-")
	if err != nil {
		return err
	}
	list := ringMembers[0] + "," + ringMembers[1]
	for m, addr := range ringMembers {
		c, err := r.launch(addr, []string{"GOMAXPROCS=1"}, "-ring", list, "-ring-self", addr,
			"-wal-dir", root, "-snapshot-interval", snapshotInterval)
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
	rg, err := ring.New(ringMembers[:], 0)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for m := range w.members {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			errs[m] = w.createSession(ctx, m, rg)
		}(m)
	}
	wg.Wait()
	w.last = [2][]byte{}
	return errors.Join(errs...)
}

// createSession opens member m's durable session and checks that m owns it.
func (w *sessionUpdate) createSession(ctx context.Context, m int, rg *ring.Ring) error {
	body, err := postJSON(ctx, w.members[m].url()+"/v1/sessions", w.create)
	if err != nil {
		return fmt.Errorf("create session on %s: %w", ringMembers[m], err)
	}
	var info api.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	if owner := rg.Owner(info.ID); owner != ringMembers[m] {
		return fmt.Errorf("session %s created on %s is owned by %s", info.ID, ringMembers[m], owner)
	}
	w.ids[m] = info.ID
	return nil
}

// sessionConn is connection c: session ids[c], sent through member 1-c.
type sessionConn struct {
	w *sessionUpdate
	c int
}

func (w *sessionUpdate) conns() []*conn {
	return []*conn{newConn(sessionConn{w, 0}, sessionDeadline), newConn(sessionConn{w, 1}, sessionDeadline)}
}

func (s sessionConn) op(k int) (string, [][]byte, error) {
	if k >= len(s.w.bodies[s.c]) {
		return "", nil, errExhausted
	}
	url := s.w.members[1-s.c].url() + "/v1/sessions/" + s.w.ids[s.c] + "/update"
	return url, [][]byte{s.w.bodies[s.c][k]}, nil
}

func (s sessionConn) check(k int, body []byte) error {
	u, err := scanInt(body, `"updates":`)
	if err != nil {
		return err
	}
	if u != int64(k+1) {
		return fmt.Errorf("session reports %d updates after update %d", u, k+1)
	}
	s.w.last[s.c] = append(s.w.last[s.c][:0], body...)
	return nil
}

// verify rebuilds each session's instance in process by Extend-ing the base
// with the same deltas the server acknowledged, and checks the final
// served state against it: same canonical hash and size, a valid cover of
// the reported weight, and a ratio within the certified bound.
func (w *sessionUpdate) verify() (int, error) {
	base, err := distcover.NewInstance(w.baseW, w.baseE)
	if err != nil {
		return 0, err
	}
	var errs []error
	for c := range w.last {
		var res api.SessionUpdateResult
		if err := json.Unmarshal(w.last[c], &res); err != nil || res.Session == nil || res.Session.Result == nil {
			errs = append(errs, fmt.Errorf("session %d: unreadable final state: %v", c, err))
			continue
		}
		info := res.Session
		mirror := base
		for k := 0; k < info.Updates; k++ {
			d, err := w.delta(c, k)
			if err != nil {
				return 0, err
			}
			if mirror, err = mirror.Extend(d); err != nil {
				return 0, err
			}
		}
		st := mirror.Stats()
		sol := info.Result
		switch {
		case info.InstanceHash != mirror.Hash():
			err = errors.New("instance hash differs from the mirror's")
		case info.Vertices != st.Vertices || info.Edges != st.Edges:
			err = fmt.Errorf("%d vertices %d edges, mirror has %d/%d", info.Vertices, info.Edges, st.Vertices, st.Edges)
		case !mirror.IsCover(sol.Cover):
			err = errors.New("cover misses an edge of the mirror")
		case mirror.CoverWeight(sol.Cover) != sol.Weight:
			err = fmt.Errorf("weight %d, cover weighs %d", sol.Weight, mirror.CoverWeight(sol.Cover))
		case sol.RatioBound > info.CertifiedBound+1e-9:
			err = fmt.Errorf("ratio %g above certified bound %g", sol.RatioBound, info.CertifiedBound)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("session %d after %d updates: %w", c, info.Updates, err))
		}
	}
	return len(errs), errors.Join(errs...)
}

// layers replays connection 0's first replayDeltas deltas in process —
// Extend on its own, then Session.Update on a session over the same base,
// the session-state read and the response encode — appends the same
// deltas to a WAL in a fresh directory, and measures the ring hop with
// probe sessions.
func (w *sessionUpdate) layers(ctx context.Context, l layers, r *runner) error {
	base, err := distcover.NewInstance(w.baseW, w.baseE)
	if err != nil {
		return err
	}
	sess, err := distcover.NewSession(base)
	if err != nil {
		return err
	}
	dir, err := r.freshDir("append-")
	if err != nil {
		return err
	}
	store, _, err := durable.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	s := samples{}
	inst := base
	for k := 0; k < replayDeltas; k++ {
		d, err := w.delta(0, k)
		if err != nil {
			return err
		}
		var sd api.SessionDelta
		var us *distcover.UpdateStats
		var st distcover.SessionState
		steps := []struct {
			name string
			fn   func() error
		}{
			{"server.decode_ms", func() error { return json.Unmarshal(w.bodies[0][k], &sd) }},
			{"hypergraph.extend_ms", func() (err error) { inst, err = inst.Extend(d); return err }},
			{"session.update_ms", func() (err error) { us, err = sess.Update(d); return err }},
			{"session.state_ms", func() error { st = sess.State(); return nil }},
			{"api.encode_ms", func() error { _, err := json.Marshal(updateResult(us, &st)); return err }},
			{"durable.append_ms", func() error {
				_, err := store.Append(durable.Record{Type: durable.RecUpdate, ID: "perfbench", Delta: d})
				return err
			}},
		}
		for _, step := range steps {
			if err := s.time(step.name, step.fn); err != nil {
				return err
			}
		}
		s["session.residual_edges"] = append(s["session.residual_edges"], float64(us.ResidualEdges))
	}
	s.into(l)
	hop, err := w.hopMS(ctx)
	l["ring.hop_ms"] = hop
	return err
}

// updateResult is the response value coverd encodes for an update.
func updateResult(us *distcover.UpdateStats, st *distcover.SessionState) *api.SessionUpdateResult {
	sol := st.Solution
	return &api.SessionUpdateResult{
		NewVertices:      us.NewVertices,
		NewEdges:         us.NewEdges,
		CoveredOnArrival: us.CoveredOnArrival,
		ResidualEdges:    us.ResidualEdges,
		ResidualVertices: us.ResidualVertices,
		Joined:           us.Joined,
		AddedWeight:      us.AddedWeight,
		Iterations:       us.Iterations,
		Rounds:           us.Rounds,
		Session: &api.SessionInfo{
			InstanceHash:   st.Hash,
			Vertices:       st.Stats.Vertices,
			Edges:          st.Stats.Edges,
			Rank:           st.Stats.Rank,
			Updates:        st.Updates,
			CertifiedBound: st.CertifiedBound,
			Result: &api.SolveResult{
				Cover:          sol.Cover,
				Weight:         sol.Weight,
				DualLowerBound: sol.DualLowerBound,
				RatioBound:     sol.RatioBound,
				Epsilon:        sol.Epsilon,
				Iterations:     sol.Iterations,
				Rounds:         sol.Rounds,
				InstanceHash:   st.Hash,
			},
		},
	}
}

// hopMS measures what one ring forward adds to an update: a small probe
// session is created on each member, then probe updates alternate between
// going straight to the owner and through the other member. The probe
// sessions are tiny, so the difference of the medians is the hop — the
// non-owner's decode, re-encode, proxy round trip and relay — not the
// update itself.
func (w *sessionUpdate) hopMS(ctx context.Context) (float64, error) {
	pr := newRand(0, saltProbe)
	probe := append(append([]byte(`{"options":{},"instance":`),
		instanceJSON(genWeights(pr, 200), genEdges(pr, 200, 400, rank))...), '}')
	s := samples{}
	for m := range w.members {
		body, err := postJSON(ctx, w.members[m].url()+"/v1/sessions", probe)
		if err != nil {
			return 0, err
		}
		var info api.SessionInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return 0, err
		}
		n := 200
		for k := 0; k < 2*hopProbes; k++ {
			d := genDelta(pr, n)
			n += deltaVertices
			target, route := w.members[m], "direct"
			if k%2 == 1 {
				target, route = w.members[1-m], "via"
			}
			url := target.url() + "/v1/sessions/" + info.ID + "/update"
			body := deltaJSON(d)
			if err := s.time(route, func() error { _, err := postJSON(ctx, url, body); return err }); err != nil {
				return 0, err
			}
		}
	}
	return median(s["via"]) - median(s["direct"]), nil
}

// walBytes is the total size of the WAL files under dir.
func walBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && d.Name() == "wal.log" {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
