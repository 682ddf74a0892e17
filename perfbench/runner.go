package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runner owns everything one benchmark run starts: coverd child processes
// and a scratch directory inside the checkout. stopAll kills and reaps the
// children; cleanup also removes the scratch directory.
type runner struct {
	cfg config
	tmp string

	mu    sync.Mutex
	procs []*coverd
	seq   int
}

// coverd is one running coverd child process.
type coverd struct {
	addr   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

func newRunner(cfg config) (*runner, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	return &runner{cfg: cfg, tmp: tmp}, nil
}

// freshDir returns a new empty directory under the run's scratch directory.
func (r *runner) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(r.tmp, prefix)
}

// launch starts coverd serving HTTP on addr. extraEnv is appended to the
// inherited environment (GOMAXPROCS for the session workload). The child is
// killed if this process dies first.
func (r *runner) launch(addr string, extraEnv []string, args ...string) (*coverd, error) {
	r.mu.Lock()
	r.seq++
	logPath := filepath.Join(r.tmp, fmt.Sprintf("coverd-%d.log", r.seq))
	r.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.cfg.coverd, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start coverd: %w", err)
	}
	c := &coverd{addr: addr, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	r.mu.Lock()
	r.procs = append(r.procs, c)
	r.mu.Unlock()
	return c, nil
}

// url returns the base URL of a coverd.
func (c *coverd) url() string { return "http://" + c.addr }

// tail returns the end of the process's log, for error reports.
func (c *coverd) tail() string {
	raw, err := os.ReadFile(c.log.Name())
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// waitHealthy polls GET /healthz until it answers 200. The 1 ms poll keeps
// the quantisation of setup_s far below its spread.
func (c *coverd) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-c.exited:
			return fmt.Errorf("coverd %s exited during start-up: %s", c.addr, c.tail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.url()+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coverd %s not healthy after 30s", c.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// live returns the running coverd processes.
func (r *runner) live() []*coverd {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*coverd(nil), r.procs...)
}

// stopAll kills every coverd this run started and waits for each to exit.
// SIGKILL, not SIGTERM: a graceful stop would write a final WAL snapshot
// nobody reads.
func (r *runner) stopAll() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	r.mu.Unlock()
	for _, c := range procs {
		c.cmd.Process.Kill()
	}
	for _, c := range procs {
		<-c.exited
		c.log.Close()
	}
}

// cleanup stops every child and removes the run's scratch directory.
func (r *runner) cleanup() {
	r.stopAll()
	os.RemoveAll(r.tmp)
}

// cpuMS sums the user+system CPU of the live coverd processes.
func (r *runner) cpuMS() (float64, error) {
	total := 0.0
	for _, c := range r.live() {
		v, err := cpuMS(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// rssMB sums the peak resident set size of the live coverd processes.
func (r *runner) rssMB() (float64, error) {
	total := 0.0
	for _, c := range r.live() {
		v, err := peakRSSMB(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// scrape reads /metrics from every live coverd and sums the series.
func (r *runner) scrape(ctx context.Context) (promScrape, error) {
	sum := make(promScrape)
	for _, c := range r.live() {
		text, err := getText(ctx, c.url()+"/metrics")
		if err != nil {
			return nil, err
		}
		p, err := parseProm(text)
		if err != nil {
			return nil, err
		}
		sum.add(p)
	}
	return sum, nil
}

// getText performs one GET and returns the body of a 200 response.
func getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := plainClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body), nil
}

// postJSON performs one POST and returns the body of a 2xx response.
func postJSON(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := plainClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %.300s", url, resp.Status, out)
	}
	return out, nil
}

// plainClient serves set-up, scrapes and probes, never the timed loop.
var plainClient = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{Proxy: nil}}
