package client

// Ring awareness: against a coordinator ring (coverd -ring) the client can
// fetch the membership once and route every request straight to its owner,
// saving the server-side forward hop. See server/ring.go and PROTOCOL.md
// for the ring's routing semantics.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strings"

	"distcover"
	"distcover/internal/ring"
	"distcover/server/api"
)

// DiscoverRing fetches GET /v1/ring from the client's base URL and, when
// the server is a coordinator ring member, rebuilds the identical
// consistent-hash ring locally. From then on solves are routed by instance
// content hash and session calls by session id directly to the owning
// coordinator; if an owner is unreachable the client falls back to the
// remaining members (whose server-side forwarding and redirects still make
// the request land correctly, one hop later). Returns whether a ring is
// active after the call. Against a standalone server it returns
// (false, nil) and the client keeps using its base URL — the pre-ring
// behavior, unchanged.
//
// Routing is a pure function of the fetched membership; there is no
// background refresh. Call DiscoverRing again to pick up a membership
// change. Not safe to call concurrently with in-flight requests that it
// should affect (the swap itself is mutex-guarded and race-free).
func (c *Client) DiscoverRing(ctx context.Context) (bool, error) {
	var info api.RingInfo
	if err := c.get(ctx, "/v1/ring", &info); err != nil {
		return false, err
	}
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	if !info.Enabled || len(info.Members) == 0 {
		c.ring = nil
		return false, nil
	}
	r, err := ring.New(info.Members, info.VNodes)
	if err != nil {
		c.ring = nil
		return false, fmt.Errorf("client: bad ring from server: %w", err)
	}
	c.ring = r
	return true, nil
}

// RingMembers returns the membership the client routes over, nil when no
// ring is active (standalone server, or DiscoverRing not called).
func (c *Client) RingMembers() []string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	if c.ring == nil {
		return nil
	}
	return c.ring.Members()
}

// ringActive reports whether DiscoverRing armed ring routing.
func (c *Client) ringActive() bool {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring != nil
}

// allBases returns every base URL worth querying for whole-fleet reads:
// the ring members when a ring is active (with the configured base
// appended if it is not one of them), else just the configured base.
func (c *Client) allBases() []string {
	c.ringMu.RLock()
	r := c.ring
	c.ringMu.RUnlock()
	if r == nil {
		return []string{c.baseURL}
	}
	var out []string
	seenSelf := false
	for _, m := range r.Members() {
		t := memberURL(m)
		out = append(out, t)
		if t == c.baseURL {
			seenSelf = true
		}
	}
	if !seenSelf {
		out = append(out, c.baseURL)
	}
	return out
}

// solveKey returns the ring routing key of a solve request — the same
// content identity the server caches under — or "" when the request cannot
// be keyed client-side (leaving routing to the server). Only called when a
// ring is active: decoding the instance costs a parse, which the
// standalone path never pays.
func solveKey(req *api.SolveRequest) string {
	switch {
	case api.Present(req.Instance):
		inst, err := distcover.ReadInstance(bytes.NewReader(req.Instance))
		if err != nil {
			return "" // malformed; let the owner-agnostic POST surface the 400
		}
		return inst.Hash()
	case req.ILP != nil:
		return api.KeyILP(req.ILP)
	default:
		return ""
	}
}

// bases returns the base URLs to try for a key, owner first. With no ring
// (or no key) that is just the configured base URL. The configured base is
// always in the fallback list even if it is not a member — it is the
// address the user knows is reachable.
func (c *Client) bases(key string) []string {
	c.ringMu.RLock()
	r := c.ring
	c.ringMu.RUnlock()
	if r == nil || key == "" {
		return []string{c.baseURL}
	}
	owner := r.Owner(key)
	out := []string{memberURL(owner)}
	if b := c.baseURL; b != out[0] {
		out = append(out, b)
	}
	for _, m := range r.Members() {
		if t := memberURL(m); t != out[0] && t != c.baseURL {
			out = append(out, t)
		}
	}
	return out
}

// memberURL turns a ring member address (host:port, as the server
// advertises them) into a base URL; members already carrying a scheme
// pass through. Mirrors the server's ringMemberURL.
func memberURL(member string) string {
	if !strings.Contains(member, "://") {
		member = "http://" + member
	}
	for len(member) > 0 && member[len(member)-1] == '/' {
		member = member[:len(member)-1]
	}
	return member
}

// retriable reports whether an error from one base is worth retrying on
// another: transport failures (owner down, connection refused) are, HTTP
// status errors are not — the owner answered, its answer stands.
func retriable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// dialFailed reports a transport error from before the request was sent
// (connection refused, no route). Only these are safe to retry for
// non-idempotent POSTs: a reset after the request went out is ambiguous —
// the owner may have durably applied the update before dying, and a blind
// replay on another member would apply it twice.
func dialFailed(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// postRouted posts to the key's owner, falling back across the remaining
// members only when the dial itself failed (see dialFailed); an error
// mid-request surfaces to the caller, who can consult the session's
// Updates count before resuming. Fallback posts stay unmarked: the
// receiving member proxies to the owner itself, and its failed proxy is
// what marks the owner down and triggers takeover server-side.
func (c *Client) postRouted(ctx context.Context, key, path string, body, out any) error {
	var lastErr error
	for _, base := range c.bases(key) {
		err := c.postTo(ctx, base, path, body, out)
		if err == nil || !dialFailed(err) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// getRouted is postRouted for GETs, with two differences. Fallback
// attempts carry the ?hop=1 marker: an unmarked GET on a non-owner is
// answered with a redirect back to the owner the client just failed to
// reach, while the hop marker makes the fallback member serve locally —
// which, when the owner is truly dead, is exactly the path that adopts the
// owner's durable sessions (WAL takeover). And a not-found from a
// hop-marked fallback is inconclusive, not authoritative: only the member
// that the reduced ring makes the live owner performs the takeover, the
// others genuinely don't hold the key — so the sweep continues until some
// member serves it or every member has said not-found.
func (c *Client) getRouted(ctx context.Context, key, path string, out any) error {
	var lastErr error
	for i, base := range c.bases(key) {
		p := path
		if i > 0 {
			p = path + "?hop=1"
		}
		err := c.getTo(ctx, base, p, out)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if i > 0 && errors.Is(err, ErrNotFound) {
			lastErr = err
			continue
		}
		if !retriable(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}
