// Package client is a thin Go client for the coverd service
// (distcover/server). It speaks the wire types of distcover/server/api and
// serializes instances through the library's own codec, so a
// *distcover.Instance round-trips the service unchanged.
//
//	c := client.New("http://localhost:8080")
//	res, err := c.Solve(ctx, inst, api.SolveOptions{Epsilon: 0.5})
//
// Engine selection rides in the options: the default api.EngineSim runs
// the solver on one worker, api.EngineFlat on one worker per server CPU
// (or SolveOptions.Parallelism workers) with bit-identical results, and
// the api.EngineCongest* names run the real message protocol and report
// communication metrics.
//
//	res, err := c.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineFlat})
//
// Against a coordinator ring (coverd -ring) call DiscoverRing once to
// route requests straight to their owning coordinator instead of paying a
// server-side forward hop; see ring.go.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"distcover"
	"distcover/internal/ring"
	"distcover/server/api"
)

// ErrBusy is returned when the server sheds load with 429 (job queue
// full). Callers should back off and retry.
var ErrBusy = errors.New("client: server busy (queue full)")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("client: not found")

// Client talks to one coverd server — or, after DiscoverRing against a
// coordinator ring, to the whole ring, routing each request straight to
// the member that owns its key. The zero value is not usable; create with
// New.
type Client struct {
	baseURL string
	httpc   *http.Client

	// Coordinator ring (nil ⇒ route everything to baseURL). See ring.go.
	ringMu sync.RWMutex
	ring   *ring.Ring
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). The default http.Client is used; replace it
// with SetHTTPClient for custom timeouts or transports.
func New(baseURL string) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{baseURL: baseURL, httpc: &http.Client{}}
}

// SetHTTPClient replaces the underlying *http.Client.
func (c *Client) SetHTTPClient(h *http.Client) { c.httpc = h }

// EncodeInstance serializes an instance into the wire form used by
// api.SolveRequest.Instance.
func EncodeInstance(inst *distcover.Instance) (json.RawMessage, error) {
	var buf bytes.Buffer
	if _, err := inst.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("client: encode instance: %w", err)
	}
	return buf.Bytes(), nil
}

// Solve solves one instance synchronously. On a ring it is routed by the
// instance's content hash straight to the owning coordinator.
func (c *Client) Solve(ctx context.Context, inst *distcover.Instance, opts api.SolveOptions) (*api.SolveResult, error) {
	raw, err := EncodeInstance(inst)
	if err != nil {
		return nil, err
	}
	req := api.SolveRequest{Instance: raw, Options: opts}
	var key string
	if c.ringActive() {
		key = inst.Hash() // the key SolveRequest would re-derive by decoding
	}
	var res api.SolveResult
	if err := c.postRouted(ctx, key, "/v1/solve", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SolveRequest submits a prebuilt request (instance or ILP) synchronously.
func (c *Client) SolveRequest(ctx context.Context, req api.SolveRequest) (*api.SolveResult, error) {
	req.Async = false
	var key string
	if c.ringActive() {
		key = solveKey(&req)
	}
	var res api.SolveResult
	if err := c.postRouted(ctx, key, "/v1/solve", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SolveAsync submits a request for background execution and returns the
// job id to poll with Job or Wait. Async jobs live on the member that
// accepted them (a ring never forwards them), so submission and polling
// both use the client's base URL.
func (c *Client) SolveAsync(ctx context.Context, req api.SolveRequest) (string, error) {
	req.Async = true
	var acc api.JobAccepted
	if err := c.post(ctx, "/v1/solve", req, &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
}

// SolveBatch submits many requests in one call; Results mirrors the input
// index by index.
func (c *Client) SolveBatch(ctx context.Context, reqs []api.SolveRequest) ([]api.BatchItem, error) {
	var res api.BatchResponse
	if err := c.post(ctx, "/v1/solve/batch", api.BatchRequest{Requests: reqs}, &res); err != nil {
		return nil, err
	}
	if len(res.Results) != len(reqs) {
		return nil, fmt.Errorf("client: batch returned %d results for %d requests", len(res.Results), len(reqs))
	}
	return res.Results, nil
}

// Job fetches the status of an async job.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls an async job until it finishes, ctx expires, or the job
// fails. poll ≤ 0 defaults to 50ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*api.SolveResult, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case api.JobDone:
			return st.Result, nil
		case api.JobFailed:
			return nil, fmt.Errorf("client: job %s failed: %s", id, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// CreateSession opens an incremental solving session for the instance: the
// server solves it once and keeps the primal/dual state so UpdateSession
// batches re-solve only the residual uncovered part. On a ring the create
// goes to the client's base URL; the receiving member mints an id it owns,
// and the later per-id calls route to that owner directly.
func (c *Client) CreateSession(ctx context.Context, inst *distcover.Instance, opts api.SolveOptions) (*api.SessionInfo, error) {
	raw, err := EncodeInstance(inst)
	if err != nil {
		return nil, err
	}
	var info api.SessionInfo
	if err := c.post(ctx, "/v1/sessions", api.SessionRequest{Instance: raw, Options: opts}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// UpdateSession applies one delta batch to a session and returns what the
// residual re-solve did together with the refreshed session state. On a
// ring it is routed by session id to the owning coordinator.
func (c *Client) UpdateSession(ctx context.Context, id string, delta api.SessionDelta) (*api.SessionUpdateResult, error) {
	var res api.SessionUpdateResult
	if err := c.postRouted(ctx, id, "/v1/sessions/"+id+"/update", delta, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Sessions lists live sessions, most recently used first. After a server
// restart with a WAL directory, rehydrated sessions appear here with
// Recovered set. On a ring the lists of all reachable members are
// concatenated (each member lists only the sessions it owns; unreachable
// members are skipped), so the MRU order holds per member, not globally.
func (c *Client) Sessions(ctx context.Context) ([]*api.SessionInfo, error) {
	var all []*api.SessionInfo
	var lastErr error
	ok := false
	for _, base := range c.allBases() {
		var list api.SessionList
		if err := c.getTo(ctx, base, "/v1/sessions", &list); err != nil {
			if !retriable(err) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		ok = true
		all = append(all, list.Sessions...)
	}
	if !ok {
		return nil, lastErr
	}
	return all, nil
}

// Session fetches the current state of a session. On a ring it is routed
// by session id to the owning coordinator.
func (c *Client) Session(ctx context.Context, id string) (*api.SessionInfo, error) {
	var info api.SessionInfo
	if err := c.getRouted(ctx, id, "/v1/sessions/"+id, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// CloseSession deletes a session on the server. On a ring it is routed by
// session id to the owning coordinator, falling back across the remaining
// members on transport errors (the server turns a misrouted delete into a
// redirect, which the http.Client follows).
func (c *Client) CloseSession(ctx context.Context, id string) error {
	var lastErr error
	for i, base := range c.bases(id) {
		p := "/v1/sessions/" + id
		if i > 0 {
			p += "?hop=1" // fallback: serve locally, see getRouted
		}
		err := c.deleteTo(ctx, base, p)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if i > 0 && errors.Is(err, ErrNotFound) {
			lastErr = err // inconclusive off the live owner, see getRouted
			continue
		}
		if !retriable(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

func (c *Client) deleteTo(ctx context.Context, base, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode == http.StatusNotFound:
		return ErrNotFound
	default:
		return fmt.Errorf("client: unexpected status %s", resp.Status)
	}
}

// Health fetches the server's health summary.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.get(ctx, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.postTo(ctx, c.baseURL, path, body, out)
}

func (c *Client) postTo(ctx context.Context, base, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.getTo(ctx, c.baseURL, path, out)
}

func (c *Client) getTo(ctx context.Context, base, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return ErrBusy
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return ErrNotFound
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil && apiErr.Error != "" {
		return fmt.Errorf("client: %s: %s", resp.Status, apiErr.Error)
	}
	return fmt.Errorf("client: unexpected status %s", resp.Status)
}
