package server

// Coordinator ring. With Config.RingSelf/RingMembers set, this server is
// one of several symmetric coverd coordinators sharing a consistent-hash
// ring (distcover/internal/ring): solves are owned by the coordinator the
// instance's content hash maps to, sessions by the coordinator their id
// maps to. Session ids are rejection-sampled at creation so ownership is
// a pure function of the id — any member (and any ring-aware client) can
// route a session request without a directory service.
//
// Misrouted requests are repaired with a single-hop loop guard:
// body-bearing requests (solve, session update) are proxied server-side
// to their owner with the X-Coverd-Hop header set; bodyless ones (session
// get/delete) get a 307 redirect carrying ?hop=1. A hop-marked request is
// always served locally, so a request crosses at most one extra hop no
// matter how stale the sender's view is.
//
// Failover: when a forward fails at the transport level (or an active
// /healthz probe does), the target is marked down for ringDownTTL and
// ownership of its keys falls to the next live members — exactly the
// assignment a ring without the dead member would produce (ring.OwnerLive,
// property-tested). A coordinator that becomes the live owner of a dead
// member's session adopts it from that member's WAL subdirectory under
// the shared -wal-dir root (read-only; durable.Recover), so a SIGKILL
// costs one WAL replay, not lost sessions. The dead member's directory is
// never written: if it restarts it recovers its own state and, after the
// down TTL lapses, regains its arcs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"distcover/internal/durable"
	"distcover/internal/ring"
	"distcover/server/api"
)

// ringHopHeader marks a server-side forwarded request; its value is the
// forwarding member's address. Requests carrying it (or the ?hop=1 query
// a redirect appends) are served locally without further routing.
const ringHopHeader = "X-Coverd-Hop"

// ringDownTTL is how long a member stays marked unreachable before
// forwards are attempted against it again. A member that restarts within
// the TTL regains its arcs at the next attempt after expiry.
const ringDownTTL = 5 * time.Second

// ringState is the mutable ring-side state of one coordinator.
type ringState struct {
	ring  *ring.Ring
	self  string
	httpc *http.Client // forwarding client (generous timeout: solves can be slow)

	mu   sync.Mutex
	down map[string]time.Time // member → when it was marked unreachable

	adoptMu sync.Mutex
	adopted map[string]bool // dead members whose WAL dir was already adopted
}

func newRingState(self string, members []string) (*ringState, error) {
	r, err := ring.New(members, 0)
	if err != nil {
		return nil, fmt.Errorf("coverd: %w", err)
	}
	if self == "" {
		return nil, fmt.Errorf("coverd: ring membership set but no self address (-ring-self)")
	}
	if !r.Contains(self) {
		return nil, fmt.Errorf("coverd: ring self %q is not in the membership list %v", self, r.Members())
	}
	return &ringState{
		ring:    r,
		self:    self,
		httpc:   &http.Client{Timeout: 2 * time.Minute},
		down:    make(map[string]time.Time),
		adopted: make(map[string]bool),
	}, nil
}

// isDown reports whether member is inside its unreachable TTL. It is the
// down predicate handed to ring.OwnerLive.
func (st *ringState) isDown(member string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.down[member]
	return ok && time.Since(t) < ringDownTTL
}

func (st *ringState) markDown(member string, m *Metrics) {
	st.mu.Lock()
	st.down[member] = time.Now()
	st.mu.Unlock()
	if m != nil {
		m.recordRingDown()
	}
}

// liveOwner is the member that should serve key right now: the static
// owner unless it is marked down, in which case ownership falls to the
// next live member exactly as if the owner had left the ring.
func (st *ringState) liveOwner(key string) string {
	owner := st.ring.Owner(key)
	if !st.isDown(owner) {
		return owner
	}
	return st.ring.OwnerLive(key, st.isDown)
}

// memberReachable actively verifies a member: already-marked-down members
// are unreachable without a probe, otherwise one short /healthz round trip
// decides (and a failure marks the member down). Used on the session-miss
// path, where a request may be the first signal that an owner died.
func (st *ringState) memberReachable(member string, m *Metrics) bool {
	if st.isDown(member) {
		return false
	}
	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(ringMemberURL(member) + "/healthz")
	if err != nil {
		st.markDown(member, m)
		return false
	}
	resp.Body.Close()
	return true
}

// ringMemberURL turns a member address (host:port, as -ring lists them)
// into a base URL. Members already carrying a scheme pass through, so a
// membership list of full URLs works too — as long as every process and
// client uses the exact same strings (they are the ring's hash keys).
func ringMemberURL(member string) string {
	if strings.Contains(member, "://") {
		return member
	}
	return "http://" + member
}

// ringHopped reports whether the request already crossed a member hop
// (server-side forward header or redirect query marker).
func ringHopped(r *http.Request) bool {
	return r.Header.Get(ringHopHeader) != "" || r.URL.Query().Get("hop") != ""
}

// ringMemberDir maps a member address onto its per-member subdirectory of
// the shared WAL root (bytes outside [A-Za-z0-9._-] become '_', so
// "127.0.0.1:8080" → "127.0.0.1_8080").
func ringMemberDir(member string) string {
	var b strings.Builder
	for _, c := range member {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// walDir is this server's effective WAL directory: standalone servers use
// Config.WALDir as-is; ring members write under a per-member subdirectory
// of it, so a takeover coordinator can read a dead member's log without
// ever touching its own.
func (s *Server) walDir() string {
	if s.ringst == nil {
		return s.cfg.WALDir
	}
	return filepath.Join(s.cfg.WALDir, ringMemberDir(s.ringst.self))
}

// ringSessionID draws session ids until one owned by this coordinator
// comes up (expected tries ≈ member count). Ownership of a session is
// thereby a pure function of its id: every member and every ring-aware
// client can locate it from the membership list alone.
func (s *Server) ringSessionID() string {
	if s.ringst == nil {
		return newJobID()
	}
	for {
		id := newJobID()
		if s.ringst.ring.Owner(id) == s.ringst.self {
			return id
		}
	}
}

// ringSolveRoute forwards a misrouted solve to the owner of key, the
// content hash of its decoded problem. Returns true if the response was
// written (forwarded). Malformed requests never get here: any member
// answers them. Async solves are always served locally — their job ids
// are polled on the accepting member — and so are hop-marked requests
// (loop guard) and requests this member owns. A forward that fails at the
// transport level marks the owner down and retries the recomputed live
// owner once; if that fails too the solve runs locally, which any member
// can do.
func (s *Server) ringSolveRoute(w http.ResponseWriter, r *http.Request, req *api.SolveRequest, key string) bool {
	st := s.ringst
	if st == nil || req.Async || ringHopped(r) {
		return false
	}
	for attempt := 0; attempt < 2; attempt++ {
		owner := st.liveOwner(key)
		if owner == st.self || owner == "" {
			return false
		}
		if s.ringProxy(w, owner, r.URL.Path, req) {
			return true
		}
	}
	return false
}

// ringSessionMiss handles a session id that is not in the local registry.
// It returns true when a response was written (forward or redirect);
// false means the caller should retry the local lookup — a takeover may
// just have installed the session — and report 404 on continued absence.
// payload nil selects redirect (bodyless GET/DELETE), non-nil selects a
// server-side proxy of the JSON payload.
func (s *Server) ringSessionMiss(w http.ResponseWriter, r *http.Request, id string, payload any) bool {
	st := s.ringst
	owner := st.ring.Owner(id)
	if owner == st.self {
		return false // ours, and genuinely absent
	}
	if !ringHopped(r) && !st.isDown(owner) {
		if s.ringSend(w, r, owner, payload) {
			return true
		}
		// Transport failure: the proxy marked the owner down; fall through
		// to the failover logic. (Redirects never fail here — the client
		// discovers an unreachable owner itself and retries with ?hop=1,
		// which lands in the hop-marked branch below.)
	}
	// The owner did not serve it. If the owner is dead, its keys fall to
	// the next live members: adopt its durable sessions if that is us, or
	// point the request at the live owner if it is someone else (never for
	// hop-marked requests — one extra hop is the contract).
	if !st.memberReachable(owner, s.metrics) {
		live := st.ring.OwnerLive(id, st.isDown)
		if live == st.self {
			s.ringAdopt(owner)
			return false
		}
		if live != "" && !ringHopped(r) && s.ringSend(w, r, live, payload) {
			return true
		}
	}
	return false
}

// ringSend points a session request at target: 307 redirect for bodyless
// requests (payload nil), server-side proxy otherwise. Returns true if a
// response was written.
func (s *Server) ringSend(w http.ResponseWriter, r *http.Request, target string, payload any) bool {
	if payload == nil {
		s.metrics.recordRingRedirect()
		http.Redirect(w, r, ringMemberURL(target)+r.URL.Path+"?hop=1", http.StatusTemporaryRedirect)
		return true
	}
	return s.ringProxy(w, target, r.URL.Path, payload)
}

// ringProxy re-issues a JSON POST server-side and relays the owner's
// response verbatim (status, content type, body). Returns false on
// transport failure, after marking the target down; HTTP-level errors
// from the target are a served response, not a failure.
func (s *Server) ringProxy(w http.ResponseWriter, target, path string, payload any) bool {
	st := s.ringst
	body, err := json.Marshal(payload)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "coverd: ring forward: %v", err)
		return true
	}
	req, err := http.NewRequest(http.MethodPost, ringMemberURL(target)+path, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "coverd: ring forward: %v", err)
		return true
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ringHopHeader, st.self)
	resp, err := st.httpc.Do(req)
	if err != nil {
		st.markDown(target, s.metrics)
		s.warn("coverd: ring forward failed", "target", target, "path", path, "err", err)
		return false
	}
	defer resp.Body.Close()
	s.metrics.recordRingForward()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// ringAdopt rehydrates, from a dead member's WAL subdirectory, every
// durable session whose ownership has fallen to this coordinator.
// Idempotent per dead member. The read is strictly read-only
// (durable.Recover): the dead member's directory stays exactly as its
// crash left it, so a restart recovers its own state cleanly. Adopted
// sessions are made durable here by forcing a snapshot into this member's
// own WAL — they have no create records in it, so the snapshot is what
// carries them across a crash of this process. (A crash between install
// and snapshot simply re-runs the takeover: the dead member's directory
// still holds everything.)
func (s *Server) ringAdopt(dead string) {
	st := s.ringst
	if s.wal == nil {
		return // no durability configured: nothing to adopt from
	}
	st.adoptMu.Lock()
	defer st.adoptMu.Unlock()
	if st.adopted[dead] {
		return
	}
	dir := filepath.Join(s.cfg.WALDir, ringMemberDir(dead))
	rec, err := durable.Recover(dir)
	if err != nil {
		s.warn("coverd: ring takeover: cannot read dead member's wal",
			"member", dead, "dir", dir, "err", err)
		return
	}
	mine := func(id string) bool {
		if _, ok := s.sessions.get(id); ok {
			return false // already held (e.g. adopted through another path)
		}
		return st.ring.OwnerLive(id, st.isDown) == st.self
	}
	entries := s.foldRecovery(rec, mine)
	for _, e := range entries {
		s.installRecovered(e)
		s.metrics.recordRingTakeover()
	}
	st.adopted[dead] = true
	if len(entries) == 0 {
		return
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("coverd: ring takeover: adopted sessions from dead member",
			"member", dead, "dir", dir, "sessions", len(entries))
	}
	if err := s.snapshotNow(true); err != nil {
		s.warn("coverd: ring takeover: snapshot failed", "err", err)
	}
}

// handleRing serves GET /v1/ring: the membership a ring-aware client
// needs to rebuild the identical ring and route requests directly.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.ringst == nil {
		writeJSON(w, http.StatusOK, api.RingInfo{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, api.RingInfo{
		Enabled: true,
		Self:    s.ringst.self,
		Members: s.ringst.ring.Members(),
		VNodes:  s.ringst.ring.VNodes(),
	})
}
