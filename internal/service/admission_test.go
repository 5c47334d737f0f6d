package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"segrid/internal/faultinject"
)

// statusLedger is a test middleware recording the status each request's
// handler wrote, keyed by the request's X-Ledger header. It sees the 499 of
// a client that hung up, which the client itself never reads.
type statusLedger struct {
	mu    sync.Mutex
	codes map[string]int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (l *statusLedger) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		l.mu.Lock()
		l.codes[r.Header.Get("X-Ledger")] = sw.code
		l.mu.Unlock()
	})
}

func (l *statusLedger) code(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.codes[name]
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionLedger drives overload through the real HTTP stack on a
// one-worker server whose queue holds two requests, and checks the shed
// ledger is exact. A fault-stalled verify holds the worker well past the
// queue wait. Behind it, one client hangs up while queued (499), two
// requests fill the queue and time out (503), and one arrives past the
// bound (429). After the drain nothing is queued or running, every lease
// has settled and no goroutine is left behind.
func TestAdmissionLedger(t *testing.T) {
	const queueWait = 500 * time.Millisecond
	svc, err := New(Config{
		MaxConcurrent: 1,
		MaxQueue:      2,
		QueueWait:     queueWait,
		Faults:        faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: 100 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger := &statusLedger{codes: map[string]int{}}
	srv := httptest.NewServer(ledger.wrap(svc.Handler()))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	baseline := runtime.NumGoroutine()

	send := func(ctx context.Context, name string, timeoutMs int) (*http.Response, error) {
		buf, err := json.Marshal(VerifyRequest{Attack: obj2Spec(), TimeoutMs: timeoutMs})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/verify", bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Ledger", name)
		resp, err := srv.Client().Do(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, nil
	}
	type result struct {
		name string
		resp *http.Response
		err  error
	}
	results := make(chan result, 3)
	goSend := func(ctx context.Context, name string, timeoutMs int) {
		go func() {
			resp, err := send(ctx, name, timeoutMs)
			results <- result{name, resp, err}
		}()
	}
	bg := context.Background()

	// The holder stalls on the only worker until its own deadline.
	goSend(bg, "holder", int(5*queueWait/time.Millisecond))
	waitFor(t, "the holder to occupy the worker", func() bool { return svc.SchedStats().Running == 1 })

	// A client that hangs up while queued is answered 499 and its unit is
	// aborted before it ever runs.
	ctx, cancel := context.WithCancel(bg)
	goSend(ctx, "gone", 0)
	waitFor(t, "the cancelling client to queue", func() bool { return svc.SchedStats().Queued == 1 })
	cancel()
	if r := <-results; r.name != "gone" || r.err == nil {
		t.Fatalf("cancelled client got %+v, want a client-side error", r)
	}
	waitFor(t, "the 499 to be written", func() bool { return ledger.code("gone") == 499 })
	if st := svc.SchedStats(); st.UnitsAborted != 1 || st.Queued != 0 {
		t.Fatalf("after the hang-up: %+v, want one aborted unit and an empty queue", st)
	}

	// Two requests fill the queue; a third is past the bound.
	goSend(bg, "queued-1", 0)
	goSend(bg, "queued-2", 0)
	waitFor(t, "two queued requests", func() bool { return svc.SchedStats().Queued == 2 })
	over, err := send(bg, "over", 0)
	if err != nil {
		t.Fatal(err)
	}
	if over.StatusCode != http.StatusTooManyRequests || over.Header.Get("Retry-After") == "" {
		t.Fatalf("request past the queue bound: %d (Retry-After %q), want 429 with Retry-After",
			over.StatusCode, over.Header.Get("Retry-After"))
	}

	// Both queued requests wait out the queue wait behind the holder.
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		if r.resp.StatusCode != http.StatusServiceUnavailable || r.resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: %d (Retry-After %q), want 503 with Retry-After",
				r.name, r.resp.StatusCode, r.resp.Header.Get("Retry-After"))
		}
	}
	if r := <-results; r.name != "holder" || r.err != nil || r.resp.StatusCode != http.StatusOK {
		t.Fatalf("holder = %+v, want its inconclusive 200", r)
	}

	codes := map[int]int{}
	ledger.mu.Lock()
	for _, c := range ledger.codes {
		codes[c]++
	}
	ledger.mu.Unlock()
	want := map[int]int{http.StatusOK: 1, 499: 1, http.StatusTooManyRequests: 1, http.StatusServiceUnavailable: 2}
	for c, n := range want {
		if codes[c] != n {
			t.Fatalf("status ledger = %v, want %v", codes, want)
		}
	}
	m := metricsOn(t, srv)
	if m.Shed429 != 1 || m.Shed503 != 2 || m.Sched.UnitsAborted != 3 {
		t.Fatalf("metrics: shed429 %d shed503 %d unitsAborted %d, want 1/2/3",
			m.Shed429, m.Shed503, m.Sched.UnitsAborted)
	}

	// The drain: nothing queued or running, every lease settled, and no
	// goroutine outlives its request.
	if st := svc.SchedStats(); st.Queued != 0 || st.Running != 0 {
		t.Fatalf("scheduler after the drain: %+v", st)
	}
	if ps := svc.PoolStats(); ps.Live != ps.Idle {
		t.Fatalf("leaked leases after the drain: %+v", ps)
	}
	srv.Client().CloseIdleConnections()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}
