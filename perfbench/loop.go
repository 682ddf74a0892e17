package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// source yields one connection's ops in a fixed order.
type source interface {
	// op returns the URL and request body parts of the k-th op.
	op(k int) (url string, body [][]byte, err error)
	// check inspects the k-th op's 2xx response before the next op is sent.
	// It runs inside the closed loop, so it only scans bytes; it must copy
	// whatever it keeps.
	check(k int, body []byte) error
}

// conn is one closed-loop client: it sends its next request only after
// the previous response was read in full, over one keep-alive connection
// per coverd it talks to.
type conn struct {
	client *http.Client
	src    source
	next   int // index of the next op in src
	req    []byte
	resp   bytes.Buffer
}

func newConn(src source, deadline time.Duration) *conn {
	return &conn{
		src: src,
		client: &http.Client{
			// The per-op deadline: a stalled request becomes a failed op
			// instead of hanging the run.
			Timeout: deadline,
			Transport: &http.Transport{
				Proxy:               nil,
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
				WriteBufferSize:     64 << 10,
				ReadBufferSize:      64 << 10,
			},
		},
	}
}

// do sends the conn's next op. The body is assembled before the clock
// starts; the latency runs from the first byte written to the last byte of
// the response read.
func (c *conn) do(ctx context.Context) (lat time.Duration, reqBytes, respBytes int, err error) {
	k := c.next
	c.next++
	url, parts, err := c.src.op(k)
	if err != nil {
		return 0, 0, 0, err
	}
	c.req = c.req[:0]
	for _, p := range parts {
		c.req = append(c.req, p...)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(c.req))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.resp.Reset()
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err == nil {
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat = time.Since(t0)
	if err != nil {
		return lat, len(c.req), 0, fmt.Errorf("op %d: %w", k, err)
	}
	if resp.StatusCode/100 != 2 {
		return lat, len(c.req), c.resp.Len(), fmt.Errorf("op %d: %s: %.200s", k, resp.Status, c.resp.Bytes())
	}
	if err := c.src.check(k, c.resp.Bytes()); err != nil {
		return lat, len(c.req), c.resp.Len(), &wrongAnswer{fmt.Errorf("op %d: %w", k, err)}
	}
	return lat, len(c.req), c.resp.Len(), nil
}

// wrongAnswer marks an op whose 2xx response failed its check, as opposed
// to an op that failed to get an answer at all.
type wrongAnswer struct{ error }

func (e *wrongAnswer) Unwrap() error { return e.error }

// window is what one closed-loop phase measured.
type window struct {
	latMS     []float64 // successful ops
	failures  int       // failed ops of any kind
	wrong     int       // of which answered but failed their check
	attempted int
	elapsed   time.Duration // start to the last completion
	reqBytes  []float64
	respBytes []float64
}

// latencies returns every op's latency in ms, failed ops entering as
// failLatencyMS: a failure misses every latency limit.
func (w *window) latencies(failLatencyMS float64) []float64 {
	all := append([]float64(nil), w.latMS...)
	for i := 0; i < w.failures; i++ {
		all = append(all, failLatencyMS)
	}
	return all
}

// drive runs the conns concurrently. With ops > 0 each conn sends exactly
// ops requests (warm-up); otherwise each sends until dur has passed since
// the start. An input pool running dry aborts the phase.
func drive(ctx context.Context, conns []*conn, ops int, dur time.Duration) (*window, error) {
	w := &window{}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		last  time.Time
		fatal error
	)
	start := time.Now()
	end := start.Add(dur)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for n := 0; ops > 0 && n < ops || ops == 0 && time.Now().Before(end); n++ {
				lat, rq, rs, err := c.do(ctx)
				done := time.Now()
				mu.Lock()
				if errors.Is(err, errExhausted) || ctx.Err() != nil {
					fatal = errors.Join(fatal, err, ctx.Err())
					mu.Unlock()
					return
				}
				w.attempted++
				if err != nil {
					w.failures++
					var wa *wrongAnswer
					if errors.As(err, &wa) {
						w.wrong++
					}
					if w.failures <= 5 {
						fmt.Fprintln(os.Stderr, "perfbench: failed", err)
					}
				} else {
					w.latMS = append(w.latMS, ms(lat))
					w.reqBytes = append(w.reqBytes, float64(rq))
					w.respBytes = append(w.respBytes, float64(rs))
				}
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = last.Sub(start)
	return w, fatal
}
