// Command coverd runs the distcover solving service: an HTTP/JSON daemon
// with a bounded job queue, a solver worker pool and an LRU instance-result
// cache (see distcover/server for the API).
//
// Usage:
//
//	coverd [-addr :8080] [-workers N] [-queue N] [-cache N] [-max-batch N]
//	       [-peer-listen addr] [-peers a,b,c] [-partition N]
//	       [-ring a,b,c -ring-self a] [-wal-dir DIR] [-snapshot-interval 1m]
//	       [-peer-cache-budget BYTES] [-log-level info] [-pprof]
//
// coverd serves until interrupted. With -peer-listen the daemon
// additionally speaks the cluster peer protocol, making it usable as a
// worker in a multi-process cover cluster; with -peers it can coordinate
// solves and sessions across such workers (HTTP requests select this with
// "engine":"cluster"). Partitions beyond the peer count share one
// multiplexed connection per peer (protocol v3). With -partition but no
// -peers the cluster engine runs its partitions in-process over a
// shared-memory exchanger — same partition plan, no sockets.
//
// With -ring (the full static membership, identical on every member) and
// -ring-self (this process's advertised host:port, which must appear in
// the list), several coverd processes form a consistent-hash
// coordinator ring: each instance hash and session id has exactly one
// owner, misrouted requests are forwarded or redirected with a single-hop
// guard, and when members share a -wal-dir root a surviving member takes
// over a dead member's sessions by replaying its WAL subdirectory. See
// distcover/server.Config and PROTOCOL.md for the wire semantics.
//
// perfbench/ (run with bash perfbench/run.sh) drives real coverd processes
// with load and checks every answer; examples/service is a minimal
// in-process server and client round trip.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distcover/internal/cluster"
	"distcover/server"
)

// HTTP server timeouts. A client that never finishes its request headers
// is dropped after readHeaderTimeout instead of holding a goroutine and a
// file descriptor until coverd exits. idleTimeout outlasts net/http's 90 s
// client-side IdleConnTimeout, so the ring forwarder and the client
// package close idle keep-alive connections before the server does.
// Whole-request read and write deadlines stay unset: synchronous solves
// and large bodies are legitimately slow.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds coverd's HTTP server around handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueN   = flag.Int("queue", 256, "job queue bound (full queue ⇒ 429)")
		cacheN   = flag.Int("cache", 1024, "instance-result cache entries (-1 disables)")
		maxBatch = flag.Int("max-batch", 4096, "max requests per batch call")
		sessions = flag.Int("sessions", 128, "max live incremental sessions (secondary cap)")
		sessMem  = flag.Int64("session-mem-budget", 256<<20,
			"byte budget for all live sessions (estimated instance+state size; LRU-evicted beyond; -1 = unbounded)")
		peerListen = flag.String("peer-listen", "",
			"also serve the cluster peer protocol on this address (makes this coverd usable as a cluster worker)")
		peers = flag.String("peers", "",
			"comma-separated peer-protocol addresses of other coverd processes; enables the \"cluster\" engine for solves and sessions")
		partition = flag.Int("partition", 0,
			"default partition count for cluster solves (0 = one per peer; without -peers a positive count runs the partitions in-process over shared memory)")
		ringList = flag.String("ring", "",
			"comma-separated host:port of ALL coordinator ring members (identical on every member; empty = standalone)")
		ringSelf = flag.String("ring-self", "",
			"with -ring: this process's own advertised host:port; must appear in -ring")
		walDir = flag.String("wal-dir", "",
			"make sessions durable: write-ahead log + snapshots in this directory, rehydrated on restart (empty = off)")
		snapEvery = flag.Duration("snapshot-interval", time.Minute,
			"with -wal-dir: how often the WAL is compacted into a snapshot")
		peerCacheBudget = flag.Int64("peer-cache-budget", 0,
			"with -peer-listen: byte budget of the content-addressed instance cache (0 = default 256 MiB)")
		logLevel = flag.String("log-level", "info",
			"minimum structured-log level (debug, info, warn, error)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof handlers under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "coverd: -log-level:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var peerAddrs []string
	for _, a := range strings.Split(*peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			peerAddrs = append(peerAddrs, a)
		}
	}
	var ringMembers []string
	for _, a := range strings.Split(*ringList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			ringMembers = append(ringMembers, a)
		}
	}
	srv, err := server.Open(server.Config{
		Workers:             *workers,
		QueueDepth:          *queueN,
		CacheSize:           *cacheN,
		MaxBatch:            *maxBatch,
		SessionCapacity:     *sessions,
		SessionMemoryBudget: *sessMem,
		ClusterPeers:        peerAddrs,
		ClusterPartitions:   *partition,
		Logger:              logger,
		WALDir:              *walDir,
		RingSelf:            *ringSelf,
		RingMembers:         ringMembers,
		SnapshotInterval:    *snapEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coverd:", err)
		os.Exit(1)
	}
	defer srv.Close()

	if *peerListen != "" {
		pln, err := net.Listen("tcp", *peerListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coverd: peer-listen:", err)
			os.Exit(1)
		}
		peer := cluster.NewPeer()
		peer.Logger = logger
		peer.Tracer = srv.Metrics().ClusterTracer()
		peer.InstanceCacheBudget = *peerCacheBudget
		defer peer.Close()
		go func() {
			// A dead peer listener degrades this process to HTTP-only (a
			// coordinator sees ErrPeerLost and retries elsewhere); it must
			// not take the healthy HTTP side down with it.
			if err := peer.Serve(pln); err != nil && err != cluster.ErrPeerClosed {
				logger.Warn("coverd: peer serve failed; peer mode disabled", "err", err)
			}
		}()
		logger.Info("coverd: peer protocol on", "addr", pln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coverd:", err)
		os.Exit(1)
	}
	logger.Info("coverd: listening on",
		"addr", ln.Addr().String(), "workers", srv.Workers(), "queue", *queueN, "cache", *cacheN, "pprof", *pprofOn)

	handler := srv.Handler()
	if *pprofOn {
		// Profiling stays off unless asked for: the pprof handlers expose
		// internals (command line, heap contents) that do not belong on an
		// open solve endpoint.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := newHTTPServer(handler)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("coverd: serve failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("coverd: shutting down")
	// Let in-flight requests (and the solves they wait on) finish before
	// closing; force-close if draining takes too long.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
}
