package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"segrid/internal/service"
)

// server is one segridd child process on loopback.
type server struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	proofDir string
	client   *http.Client
	log      *lockedBuffer
	exited   chan struct{}
	waitErr  error
}

// lockedBuffer collects the child's log output for error messages.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before segridd binds it; startServer retries on that.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs segridd with its default flags plus -concurrency 2 and
// a fresh proof directory under workDir, and waits until /healthz answers.
// The returned start time is the exec instant, the origin of setup_s.
func startServer(bin, workDir string) (*server, time.Time, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, start, err := tryStartServer(bin, workDir)
		if err == nil {
			return s, start, nil
		}
		lastErr = err
	}
	return nil, time.Time{}, lastErr
}

func tryStartServer(bin, workDir string) (*server, time.Time, error) {
	port, err := freePort()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("pick port: %w", err)
	}
	proofDir, err := os.MkdirTemp(workDir, "proofs-")
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("proof dir: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		base:     "http://" + addr,
		proofDir: proofDir,
		log:      &lockedBuffer{},
		exited:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-concurrency", "2", "-proof-dir", proofDir)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(proofDir)
		return nil, time.Time{}, fmt.Errorf("exec segridd: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.exited:
			os.RemoveAll(proofDir)
			return nil, time.Time{}, fmt.Errorf("segridd exited during start-up (%v): %s", s.waitErr, s.log.String())
		default:
		}
		if s.healthy() {
			return s, start, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, time.Time{}, fmt.Errorf("segridd did not answer /healthz within 20s: %s", s.log.String())
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) healthy() bool {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the graceful shutdown (SIGKILL after 30s)
// and removes the proof directory.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.proofDir)
}

// procCPU returns the child's CPU time: the sum over its threads of
// /proc/<pid>/task/<tid>/schedstat's first field, nanoseconds on the CPU.
// (The 10 ms ticks of /proc/<pid>/stat are too coarse for sub-second
// windows.)
func (s *server) procCPU() (time.Duration, error) {
	dir := filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread ended after ReadDir
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return time.Duration(total), nil
}

// hostSteal returns the machine's cumulative steal and total CPU ticks from
// /proc/stat: the share of time the hypervisor ran someone else on this
// VM's vCPUs, the main source of run-to-run noise on a shared host.
func hostSteal() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSSMB returns the child's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metrics fetches GET /metrics.
func (s *server) metrics() (*service.Metrics, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// httpError is a non-2xx answer. Sheds (429/503) are the service refusing
// work under load; everything else is a failed operation too.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.body) }

// post sends one JSON request and decodes a 2xx answer into out. It
// returns the raw answer bytes for the traced run's JSON timing.
func (s *server) post(ctx context.Context, path string, in, out any) ([]byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, &httpError{status: resp.StatusCode, body: strings.TrimSpace(string(raw))}
	}
	return raw, json.Unmarshal(raw, out)
}
