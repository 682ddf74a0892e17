//go:build unix

package distcover

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"distcover/internal/cluster"
)

// The chaos suite runs cluster peers as real operating-system processes and
// SIGKILLs them at deterministic protocol positions: the test binary
// re-execs itself as a peer helper (TestMain dispatches on an environment
// variable), and the helper kills itself — kill -9, no cleanup, no
// handshake — after serving a configured number of reads on a configured
// connection. The suite asserts the bar every in-process engine already
// meets: the surviving coordinator returns the typed ErrPeerLost promptly
// (no hang), leaks no goroutines, commits nothing to session state, and
// recovers fully once the peer is replaced.

const (
	helperEnv         = "DISTCOVER_PEER_HELPER"
	helperKillOnSolve = "DISTCOVER_PEER_KILL_ON_SOLVE"
	helperKillReads   = "DISTCOVER_PEER_KILL_AFTER_READS"
)

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		runPeerHelper()
		return
	}
	os.Exit(m.Run())
}

// runPeerHelper is the re-exec'd peer process: it listens on an ephemeral
// port, announces it on stdout and serves cluster solves until killed.
func runPeerHelper() {
	killOnSolve, _ := strconv.Atoi(os.Getenv(helperKillOnSolve))
	killAfterReads, _ := strconv.Atoi(os.Getenv(helperKillReads))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "peer helper:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	p := cluster.NewPeer()
	err = p.Serve(&killingListener{Listener: ln, killOnSolve: killOnSolve, killAfterReads: killAfterReads})
	fmt.Fprintln(os.Stderr, "peer helper: serve:", err)
	os.Exit(1)
}

// killingListener counts accepted connections (the peer protocol runs one
// solve per connection, so the accept index is the solve index) and arms a
// killingConn on the configured one.
type killingListener struct {
	net.Listener
	killOnSolve    int // 1-based accept index to arm; 0 = never
	killAfterReads int // Read calls on the armed connection before SIGKILL
	accepts        int
}

func (l *killingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts++
	if l.killOnSolve > 0 && l.accepts == l.killOnSolve {
		return &killingConn{Conn: conn, killAfterReads: l.killAfterReads}, nil
	}
	return conn, nil
}

// killingConn SIGKILLs its own process at the start of the configured Read
// call — mid-protocol, after the peer has already contributed frames to the
// in-flight round.
type killingConn struct {
	net.Conn
	killAfterReads int
	reads          int
}

func (c *killingConn) Read(p []byte) (int, error) {
	c.reads++
	if c.reads >= c.killAfterReads {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL is not deliverable to a handler
	}
	return c.Conn.Read(p)
}

// startHelperPeer launches the test binary as a peer process and returns
// its address and process handle. killOnSolve = 0 runs a well-behaved peer.
func startHelperPeer(t *testing.T, killOnSolve, killAfterReads int) (string, *os.Process) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		fmt.Sprintf("%s=%d", helperKillOnSolve, killOnSolve),
		fmt.Sprintf("%s=%d", helperKillReads, killAfterReads),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("peer helper produced no address line: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "ADDR ")
	if !ok {
		t.Fatalf("unexpected helper output %q", line)
	}
	// The helper writes nothing further to stdout (diagnostics go to
	// stderr), so the pipe can sit unread without ever blocking it.
	return addr, cmd.Process
}

// chaosInstance is large enough to run several iterations, so a peer armed
// to die after the setup phase dies mid-round, not post-solve.
func chaosInstance(t *testing.T) *Instance {
	t.Helper()
	weights := make([]int64, 600)
	state := uint64(0xDEADBEEFCAFE)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for i := range weights {
		weights[i] = int64(1 + next(500))
	}
	edges := make([][]int, 1800)
	for e := range edges {
		edges[e] = []int{next(600), next(600), next(600)}
	}
	inst, err := NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// waitGoroutinesBackRoot is the goroutine-count regression idiom extended
// to the cluster coordinator path.
func waitGoroutinesBackRoot(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterChaosSIGKILLMidSolve SIGKILLs one of three peer processes in
// the middle of the first round of a solve. The coordinator must return the
// typed ErrPeerLost promptly and leak nothing.
func TestClusterChaosSIGKILLMidSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	before := runtime.NumGoroutine()
	func() {
		good1, _ := startHelperPeer(t, 0, 0)
		good2, _ := startHelperPeer(t, 0, 0)
		// Dies at its 6th read on the first connection: after the hello and
		// setup frames (2 reads each) and after publishing its iteration-1
		// boundary frame — mid-round by construction.
		killer, _ := startHelperPeer(t, 1, 6)
		inst := chaosInstance(t)
		start := time.Now()
		_, err := ClusterSolve(inst, []string{good1, killer, good2})
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrPeerLost", err)
		}
		if d := time.Since(start); d > 20*time.Second {
			t.Fatalf("coordinator needed %v to fail over", d)
		}
	}()
	waitGoroutinesBackRoot(t, before)
}

// TestClusterChaosSIGKILLMultiplexed SIGKILLs a peer process that carries
// two multiplexed partitions on one v3 connection, mid-exchange, while a
// second two-partition peer is healthy. The concurrent fan-out relay must
// surface exactly one typed ErrPeerLost (not a hang, not a protocol error
// from the half-dead channels), unblock everything, and leave the
// coordinator able to solve again once the peer is replaced.
func TestClusterChaosSIGKILLMultiplexed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	before := runtime.NumGoroutine()
	func() {
		good, _ := startHelperPeer(t, 0, 0)
		// One connection carries both of this peer's partitions under v3;
		// the 12th read lands after both channel setups and the instance
		// re-syncs — inside the iteration exchange loop.
		killer, _ := startHelperPeer(t, 1, 12)
		inst := chaosInstance(t)
		start := time.Now()
		_, err := ClusterSolve(inst, []string{good, killer}, WithClusterPartitions(4))
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrPeerLost", err)
		}
		if d := time.Since(start); d > 20*time.Second {
			t.Fatalf("coordinator needed %v to fail over", d)
		}

		// Replace the dead peer: the identical multiplexed solve must now
		// succeed and match the single-process flat result bit for bit.
		replacement, _ := startHelperPeer(t, 0, 0)
		got, err := ClusterSolve(inst, []string{good, replacement}, WithClusterPartitions(4))
		if err != nil {
			t.Fatalf("solve after replacement: %v", err)
		}
		want, err := Solve(inst, WithSolverParallelism(0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cover, want.Cover) || got.Weight != want.Weight ||
			got.DualLowerBound != want.DualLowerBound {
			t.Fatal("post-recovery multiplexed solve diverges from flat")
		}
	}()
	waitGoroutinesBackRoot(t, before)
}

// TestClusterChaosSIGKILLMidUpdate SIGKILLs a peer inside a cluster
// Session.Update: the update must fail with ErrPeerLost without committing
// anything, and after the peer is replaced (SetClusterPeers) the same delta
// must apply and land bit-identically with a single-process reference
// session.
func TestClusterChaosSIGKILLMidUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	before := runtime.NumGoroutine()
	func() {
		good1, _ := startHelperPeer(t, 0, 0)
		good2, _ := startHelperPeer(t, 0, 0)
		// Survives the session's initial solve (connection 1), dies on its
		// 6th read of connection 2 — inside the update's residual solve.
		killer, _ := startHelperPeer(t, 2, 6)

		inst := chaosInstance(t)
		ref, err := NewSession(inst, WithSolverParallelism(0))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(inst, WithClusterPeers(good1, good2, killer))
		if err != nil {
			t.Fatalf("cluster session: %v", err)
		}
		wantBase := ref.Solution()
		if got := sess.Solution(); !reflect.DeepEqual(got.Cover, wantBase.Cover) ||
			got.DualLowerBound != wantBase.DualLowerBound {
			t.Fatal("cluster session base solve diverges from flat")
		}

		// A delta guaranteed to leave residual work (fresh vertices only).
		d := Delta{
			Weights: []int64{5, 7, 9, 11},
			Edges:   [][]int{{600, 601}, {601, 602}, {602, 603}, {600, 603}, {600, 602}},
		}
		snapBefore := sess.Solution()
		if _, err := sess.Update(d); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("update err = %v, want ErrPeerLost", err)
		}
		// Nothing committed: the snapshot is unchanged and the hash still
		// names the pre-delta instance.
		snapAfter := sess.Solution()
		if !reflect.DeepEqual(snapBefore, snapAfter) {
			t.Fatal("failed update mutated session state")
		}
		if sess.Hash() != inst.Hash() {
			t.Fatal("failed update advanced the session hash")
		}

		// Recovery: replace the dead peer and retry the identical delta.
		replacement, _ := startHelperPeer(t, 0, 0)
		sess.SetClusterPeers(good1, good2, replacement)
		if _, err := sess.Update(d); err != nil {
			t.Fatalf("retry after recovery: %v", err)
		}
		if _, err := ref.Update(d); err != nil {
			t.Fatal(err)
		}
		got, want := sess.Solution(), ref.Solution()
		if !reflect.DeepEqual(got.Cover, want.Cover) || got.DualLowerBound != want.DualLowerBound ||
			got.Weight != want.Weight {
			t.Fatal("recovered cluster session diverges from flat session")
		}
		grown, err := inst.Extend(d)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Hash() != grown.Hash() {
			t.Fatal("recovered session hash drifted")
		}
	}()
	waitGoroutinesBackRoot(t, before)
}
