package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/retry"
	"repro/internal/sketchd"
)

// server is one cmd/sketchd process listening on loopback with a durable
// data directory.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	out  chan struct{}
	done bool
}

// startServer execs sketchd on dir and returns once it listens. The child is
// killed if this process dies first.
func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sketchd: %w", err)
	}
	s := &server{cmd: cmd, out: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(s.out)
		br := bufio.NewReader(stdout)
		line, err := br.ReadString('\n')
		if err == nil {
			lines <- line
		}
		close(lines)
		//nolint:errcheck // drains the pipe until the process exits
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case line, ok := <-lines:
		const prefix = "sketchd: listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			//nolint:errcheck // the start failure is the error reported
			_ = s.kill()
			return nil, fmt.Errorf("sketchd did not report its address (got %q)", line)
		}
		s.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
		return s, nil
	case <-time.After(60 * time.Second):
		//nolint:errcheck // the timeout is the error reported
		_ = s.kill()
		return nil, fmt.Errorf("sketchd did not start listening within 60s")
	}
}

// kill sends SIGKILL and waits for the process to be gone. Idempotent.
func (s *server) kill() error {
	if s.done {
		return nil
	}
	s.done = true
	//nolint:errcheck // the process may already have exited; Wait reports it
	_ = s.cmd.Process.Kill()
	<-s.out
	//nolint:errcheck // a SIGKILLed child always reports "signal: killed"
	_ = s.cmd.Wait()
	return nil
}

// cpuSeconds reads the process's user+sys CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(data)
	rest = rest[strings.LastIndexByte(rest, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return float64(ut+st) / 100, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// connGauge counts the generator's TCP dials and its requests in flight
// (now and at most).
type connGauge struct {
	dialed, inflight, peak atomic.Int64
}

// dial opens one connection. The generator closes its connections with
// SO_LINGER 0 (a reset instead of FIN and TIME_WAIT): a client that dials
// per request opens tens of thousands of connections a run, which would
// fill the kernel's TIME_WAIT table and slow every connect() of the runs
// that follow within the next minute.
func (g *connGauge) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	g.dialed.Add(1)
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetLinger(0); err != nil {
			//nolint:errcheck // the SetLinger failure is the error reported
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// do runs one request, counting it in flight.
func (g *connGauge) do(f func() sent) sent {
	n := g.inflight.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer g.inflight.Add(-1)
	return f()
}

// newClient builds the generator's sketchd.Client: at most conns
// connections, one attempt per request (a failure is counted, never
// retried), and the transport wrapped by wrap when non-nil. Close the
// returned transport's idle connections when done with the client.
func newClient(base string, conns int, g *connGauge, wrap func(http.RoundTripper) http.RoundTripper) (*sketchd.Client, *http.Transport) {
	tr := &http.Transport{
		DialContext:         g.dial,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	hc := &http.Client{Transport: rt, Timeout: 2 * time.Minute}
	return sketchd.NewClient(base, sketchd.WithHTTPClient(hc), sketchd.WithRetryPolicy(retry.Policy{Attempts: 1})), tr
}
