package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/scenariofile"
)

// obj2Spec is the paper's objective-2 case study (ieee14, target state 12):
// feasible as-is, infeasible once measurement 46 is secured. The test
// suite's ground truth.
func obj2Spec() scenariofile.AttackSpec {
	return scenariofile.AttackSpec{
		Case:        "ieee14",
		Untaken:     []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
		Targets:     []int{12},
		OnlyTargets: true,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func verifyOn(t *testing.T, srv *httptest.Server, req VerifyRequest) *VerifyResponse {
	t.Helper()
	resp, raw := post(t, srv, "/v1/verify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify status %d: %s", resp.StatusCode, raw)
	}
	var out VerifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v (%s)", err, raw)
	}
	return &out
}

// TestVerifyWarmReuseAndScopedOverlay checks the core service contract in
// one flow: verdicts are correct, requests sharing a spec reuse the warm
// encoder, and a per-request overlay neither leaks into later requests nor
// poisons the encoder.
func TestVerifyWarmReuseAndScopedOverlay(t *testing.T) {
	_, srv := newTestServer(t, Config{})

	r1 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if r1.Status != "feasible" || r1.Warm {
		t.Fatalf("first request = %+v, want cold feasible", r1)
	}
	// Same spec, secured measurement 46 overlaid: infeasible, on the warm
	// encoder from request 1.
	r2 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec(), SecuredMeasurements: []int{46}})
	if r2.Status != "infeasible" || !r2.Warm {
		t.Fatalf("overlay request = %+v, want warm infeasible", r2)
	}
	// The overlay must be gone: the bare spec is feasible again, still warm.
	r3 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if r3.Status != "feasible" || !r3.Warm {
		t.Fatalf("post-overlay request = %+v, want warm feasible", r3)
	}
	if len(r3.AlteredMeasurements) == 0 {
		t.Fatalf("feasible verdict carries no attack vector")
	}
}

// TestVerifyWarmMatchesCoreVerify is the service-level differential check:
// answers from one warm pooled encoder under scoped overlays must agree with
// core.Verify on a new model that folds the same protections into the
// scenario — the one-shot path proof verifies and ufdiverify take.
func TestVerifyWarmMatchesCoreVerify(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct{ buses, meas []int }{
		{},
		{meas: []int{46}},
		{buses: []int{12}},
		{buses: []int{6}, meas: []int{46}},
		{buses: []int{1, 3, 6, 8, 9}},
		{},
	}
	verdicts := map[string]int{}
	for i, c := range cases {
		got := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec(), SecuredBuses: c.buses, SecuredMeasurements: c.meas})
		if got.Warm != (i > 0) {
			t.Fatalf("case %d: warm = %v, want a cold first request and warm reuse after", i, got.Warm)
		}
		spec := obj2Spec()
		spec.Secured = c.meas
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range c.buses {
			if err := sc.Meas.SecureBus(j); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := core.Verify(sc)
		if err != nil || ref.Inconclusive {
			t.Fatalf("case %d: reference verify = %+v, %v", i, ref, err)
		}
		want := "infeasible"
		if ref.Feasible {
			want = "feasible"
		}
		if got.Status != want {
			t.Fatalf("case %d (buses %v, measurements %v): warm says %s, core.Verify says %s", i, c.buses, c.meas, got.Status, want)
		}
		verdicts[want]++
	}
	if verdicts["feasible"] == 0 || verdicts["infeasible"] == 0 {
		t.Fatalf("verdicts %v: the cases must exercise both answers", verdicts)
	}
}

// TestVerifyDeadlineInconclusive checks an expired per-request deadline
// yields a machine-readable inconclusive answer, never a guess. The
// deadline is already in the past when the request arrives: a small "1ms"
// deadline raced the solve on fast idle machines (ieee118 can legitimately
// answer within a millisecond, which is sound but not what this test is
// about), so the in-process API is driven with a pre-expired context
// instead.
func TestVerifyDeadlineInconclusive(t *testing.T) {
	svc, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r, err := svc.Verify(ctx, &VerifyRequest{
		Attack: scenariofile.AttackSpec{Case: "ieee118", AnyState: true},
	})
	if err != nil {
		t.Fatalf("verify under expired deadline errored: %v", err)
	}
	if r.Status != "inconclusive" {
		t.Fatalf("status = %s, want inconclusive under an expired deadline", r.Status)
	}
	if r.UnknownReason != "deadline" && r.UnknownReason != "cancelled" {
		t.Fatalf("unknownReason = %q, want a deadline classification", r.UnknownReason)
	}
}

// TestVerifyRetryLadderRecovers drives the warm→fresh fallback: the first
// scheduled fault poisons the warm encoder mid-check, the retry runs clean
// on a fresh encoder, and the client sees the correct verdict with the
// retry made visible.
func TestVerifyRetryLadderRecovers(t *testing.T) {
	fcfg := faultinject.Config{PPoison: 0.5, MaxAfterPolls: 1}
	// Find a seed whose schedule poisons the first check and leaves the
	// next three clean: request 1 exercises warm-poison → fresh-retry, and
	// request 2 (warm attempt + possible retry) must run undisturbed.
	seed := uint64(0)
	for s := uint64(1); s < 65536; s++ {
		sched := faultinject.New(s, fcfg)
		if sched.Next().Kind != faultinject.Poison {
			continue
		}
		if sched.Next().Kind == faultinject.None &&
			sched.Next().Kind == faultinject.None &&
			sched.Next().Kind == faultinject.None {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed with a poison-then-clean prefix")
	}
	svc, srv := newTestServer(t, Config{Faults: faultinject.New(seed, fcfg)})

	r := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if r.Status != "feasible" {
		t.Fatalf("status = %s (%s), want feasible after the retry", r.Status, r.Why)
	}
	if r.Retries != 1 || r.Warm {
		t.Fatalf("retries = %d, warm = %v; want one fallback onto a fresh encoder", r.Retries, r.Warm)
	}
	if ps := svc.PoolStats(); ps.Discards != 1 {
		t.Fatalf("pool discards = %d, want the poisoned encoder quarantined", ps.Discards)
	}
	// The quarantined encoder is gone: the next identical request must not
	// be served warm.
	r2 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if r2.Status != "feasible" || r2.Warm {
		t.Fatalf("post-quarantine request = %+v, want a cold rebuild", r2)
	}
}

// TestVerifyEvictsIdleEncoderAtPoolCap fills a two-encoder pool with the
// idle encoders of two cases and checks a third case still gets a pooled
// encoder: its cold build evicts the least recently used idle one instead
// of being refused, so a repeat is served warm and a sweep over the new
// case builds nothing.
func TestVerifyEvictsIdleEncoderAtPoolCap(t *testing.T) {
	svc, srv := newTestServer(t, Config{PoolMaxLive: 2})
	spec := func(c string) scenariofile.AttackSpec { return scenariofile.AttackSpec{Case: c, AnyState: true} }
	verifyOn(t, srv, VerifyRequest{Attack: spec("ieee14")})
	verifyOn(t, srv, VerifyRequest{Attack: spec("ieee30")})
	if r := verifyOn(t, srv, VerifyRequest{Attack: spec("ieee57")}); r.Status != "feasible" || r.Warm {
		t.Fatalf("ieee57 at the pool cap = %+v, want a cold feasible answer", r)
	}
	if ps := svc.PoolStats(); ps.Evictions != 1 || ps.Live != 2 || ps.Idle != 2 {
		t.Fatalf("pool = %+v, want one eviction and two idle encoders", ps)
	}
	if r := verifyOn(t, srv, VerifyRequest{Attack: spec("ieee57")}); !r.Warm {
		t.Fatalf("repeat ieee57 verify = %+v, want it served warm", r)
	}
	out := sweepOn(t, srv, SweepRequest{Attack: spec("ieee57"), Items: []SweepItem{{}, {SecuredBuses: []int{1}}}})
	if out.EncoderBuilds != 0 {
		t.Fatalf("ieee57 sweep built %d encoders, want 0 (the pooled one)", out.EncoderBuilds)
	}
}

// TestAdmissionControlSheds saturates a 1-slot server with stalled solves
// and checks overload is refused (429/503 with Retry-After) rather than
// mis-answered.
func TestAdmissionControlSheds(t *testing.T) {
	_, srv := newTestServer(t, Config{
		MaxConcurrent:  1,
		MaxQueue:       1,
		QueueWait:      50 * time.Millisecond,
		DefaultTimeout: 300 * time.Millisecond,
		Faults:         faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: time.Millisecond}),
	})
	const n = 4
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		codes = map[int]int{}
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := post(t, srv, "/v1/verify", VerifyRequest{Attack: obj2Spec()})
			mu.Lock()
			defer mu.Unlock()
			codes[resp.StatusCode]++
			switch resp.StatusCode {
			case http.StatusOK:
				var out VerifyResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				// Every check stalls to its deadline; a verdict of
				// "infeasible" here would be a silent wrong answer.
				if out.Status == "infeasible" {
					t.Errorf("stalled solve produced an unsound infeasible verdict")
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("shed %d without Retry-After", resp.StatusCode)
				}
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	if codes[http.StatusTooManyRequests]+codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("no request was shed under saturation: %v", codes)
	}
}

// TestProofRoundTrip requests a certificate for an infeasible check and
// re-validates it through the proofcheck endpoint; the proof directory must
// hold exactly the published file, no staging temps, with the mode
// os.Create gives, so a checker under another account can read it.
func TestProofRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestServer(t, Config{ProofDir: dir})
	r := verifyOn(t, srv, VerifyRequest{
		Attack:              obj2Spec(),
		SecuredMeasurements: []int{46},
		Proof:               true,
	})
	if r.Status != "infeasible" {
		t.Fatalf("status = %s, want infeasible", r.Status)
	}
	if r.ProofFile == "" || r.ProofError != "" {
		t.Fatalf("proof = %q / %q, want a published certificate", r.ProofFile, r.ProofError)
	}
	resp, raw := post(t, srv, "/v1/proofcheck", ProofCheckRequest{Path: r.ProofFile})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proofcheck status %d: %s", resp.StatusCode, raw)
	}
	var chk ProofCheckResponse
	if err := json.Unmarshal(raw, &chk); err != nil {
		t.Fatal(err)
	}
	if !chk.Valid || chk.UnsatChecks == 0 {
		t.Fatalf("proofcheck = %+v, want a valid certificate with unsat checks", chk)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != r.ProofFile {
		t.Fatalf("proof dir = %v, want exactly the published %s", ents, r.ProofFile)
	}
	if got, want := fileMode(t, filepath.Join(dir, r.ProofFile)), createdMode(t, dir); got != want {
		t.Fatalf("certificate mode %v, want %v like an os.Create file", got, want)
	}
}

// createdMode reports the permission bits os.Create gives a new file in dir.
func createdMode(t *testing.T, dir string) os.FileMode {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "mode-reference"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	defer os.Remove(f.Name())
	return fileMode(t, f.Name())
}

// fileMode reports path's permission bits.
func fileMode(t *testing.T, path string) os.FileMode {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Mode().Perm()
}

// TestAdmissionProofCheckIsShed checks a certificate check is scheduled
// work like any solve: with the only worker held by a fault-stalled verify,
// a proofcheck waits in the queue and is shed with 503 at the queue wait;
// once the worker frees it runs as one unit.
func TestAdmissionProofCheckIsShed(t *testing.T) {
	svc, srv := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueWait:     100 * time.Millisecond,
		ProofDir:      t.TempDir(),
		Faults:        faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: 50 * time.Millisecond}),
	})
	held := make(chan struct{})
	go func() {
		defer close(held)
		post(t, srv, "/v1/verify", VerifyRequest{Attack: obj2Spec(), TimeoutMs: 1000})
	}()
	waitFor(t, "the holder to occupy the worker", func() bool { return svc.SchedStats().Running == 1 })

	resp, raw := post(t, srv, "/v1/proofcheck", ProofCheckRequest{Path: "missing.proof"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("proofcheck behind a held worker: %d %s, want 503 with Retry-After", resp.StatusCode, raw)
	}
	<-held
	before := svc.SchedStats().UnitsRun
	resp, raw = post(t, srv, "/v1/proofcheck", ProofCheckRequest{Path: "missing.proof"})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"valid":false`) {
		t.Fatalf("proofcheck on an idle server: %d %s, want 200 with valid false", resp.StatusCode, raw)
	}
	if ran := svc.SchedStats().UnitsRun - before; ran != 1 {
		t.Fatalf("proofcheck ran %d scheduler units, want 1", ran)
	}
}

// TestSchedInlineVerifyCounts checks /metrics unitsInline counts the
// one-unit flows that ran on their request goroutine: a verify on an idle
// server runs inline, and one queued behind a held slot runs on a worker,
// adding to unitsRun only.
func TestSchedInlineVerifyCounts(t *testing.T) {
	ctx := context.Background()
	svc, srv := newTestServer(t, Config{MaxConcurrent: 1})
	for i := 0; i < 2; i++ { // a cold and a warm verify
		m0 := metricsOn(t, srv)
		if _, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()}); err != nil {
			t.Fatal(err)
		}
		m1 := metricsOn(t, srv)
		if in, run := m1.Sched.UnitsInline-m0.Sched.UnitsInline, m1.Sched.UnitsRun-m0.Sched.UnitsRun; in != 1 || run != 1 {
			t.Fatalf("verify %d on an idle server: unitsInline +%d, unitsRun +%d; want +1 and +1", i, in, run)
		}
	}

	// The holder pattern of TestAdmissionProofCheckIsShed: a fault-stalled
	// verify, inline itself, holds the only slot.
	svc, srv = newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueWait:     10 * time.Second,
		Faults:        faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: 50 * time.Millisecond}),
	})
	// In-process requests carry their deadline in ctx: the holder stalls
	// until its own, and the queued verify's has passed when it starts.
	holdCtx, cancelHold := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancelHold()
	queuedCtx, cancelQueued := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelQueued()
	m0 := metricsOn(t, srv)
	held := make(chan struct{})
	go func() {
		defer close(held)
		_, _ = svc.Verify(holdCtx, &VerifyRequest{Attack: obj2Spec()})
	}()
	waitFor(t, "the holder to occupy the slot", func() bool { return svc.SchedStats().Running == 1 })
	queued := make(chan error, 1)
	go func() {
		_, err := svc.Verify(queuedCtx, &VerifyRequest{Attack: obj2Spec()})
		queued <- err
	}()
	waitFor(t, "the second verify to queue", func() bool { return svc.SchedStats().Queued == 1 })
	<-held
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	m1 := metricsOn(t, srv)
	if in, run := m1.Sched.UnitsInline-m0.Sched.UnitsInline, m1.Sched.UnitsRun-m0.Sched.UnitsRun; in != 1 || run != 2 {
		t.Fatalf("holder plus queued verify: unitsInline +%d, unitsRun +%d; want +1 (the holder) and +2", in, run)
	}
}

// TestProofStreamFaultNeverPublishes injects a certificate-sink failure:
// the verdict must stand, the failure must be reported, and nothing may be
// published.
func TestProofStreamFaultNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestServer(t, Config{
		ProofDir: dir,
		Faults:   faultinject.New(3, faultinject.Config{PProofErr: 1, MaxAfterBytes: 1}),
	})
	r := verifyOn(t, srv, VerifyRequest{
		Attack:              obj2Spec(),
		SecuredMeasurements: []int{46},
		Proof:               true,
	})
	if r.Status != "infeasible" {
		t.Fatalf("status = %s; a failing proof sink must not change the verdict", r.Status)
	}
	if r.ProofFile != "" || r.ProofError == "" {
		t.Fatalf("proof = %q / %q, want an unpublished stream with a reported error", r.ProofFile, r.ProofError)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("proof dir not empty after failed stream: %v", ents)
	}
}

// TestSynthesizeEndpoint runs the paper's synthesis scenario 2 through the
// service.
func TestSynthesizeEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, raw := post(t, srv, "/v1/synthesize", SynthesizeRequest{
		Synthesis: scenariofile.SynthesisSpec{
			Attack: scenariofile.AttackSpec{
				Case:     "ieee14",
				Untaken:  []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
				AnyState: true,
			},
			MaxSecuredBuses: 5,
			RequiredBuses:   []int{1},
			Prune:           true,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d: %s", resp.StatusCode, raw)
	}
	var out SynthesizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "found" || len(out.SecuredBuses) == 0 || len(out.SecuredBuses) > 5 {
		t.Fatalf("synthesize = %+v, want an architecture of at most 5 buses", out)
	}
	if out.SecuredBuses[0] != 1 {
		t.Fatalf("architecture %v misses required bus 1", out.SecuredBuses)
	}
}

// TestRequestValidation pins the strict-input contract: unknown fields,
// traversal paths and proof requests without a proof dir are all refused.
func TestRequestValidation(t *testing.T) {
	svc, srv := newTestServer(t, Config{ProofDir: t.TempDir()})

	for _, body := range []string{
		`{"attack": {"case": "ieee14"}, "bogus": 1}`,
		// The portfolio and freshEncode options are gone; strict decoding
		// must refuse them.
		`{"attack": {"case": "ieee14", "anyState": true}, "securedBuses": [1, 3, 6, 8, 9], "portfolio": 3}`,
		`{"attack": {"case": "ieee14", "anyState": true}, "freshEncode": true}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field accepted: %d for %s", resp.StatusCode, body)
		}
	}

	bad := svc.m.badRequests.Load()
	for _, path := range []string{"../outside.proof", "/etc/passwd", ""} {
		resp, raw := post(t, srv, "/v1/proofcheck", ProofCheckRequest{Path: path})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("path %q accepted: %d %s", path, resp.StatusCode, raw)
		}
	}
	if n := svc.m.badRequests.Load() - bad; n != 3 {
		t.Fatalf("badRequests counted %d proofcheck path rejections, want 3", n)
	}
	noDir, noDirSrv := newTestServer(t, Config{})
	if resp, raw := post(t, noDirSrv, "/v1/proofcheck", ProofCheckRequest{Path: "x.proof"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("proofcheck without a proof directory: %d %s, want 400", resp.StatusCode, raw)
	}
	if n := noDir.m.badRequests.Load(); n != 1 {
		t.Fatalf("badRequests = %d after a proofcheck without a proof directory, want 1", n)
	}

	resp2, raw := post(t, srv, "/v1/verify", VerifyRequest{
		Attack:       obj2Spec(),
		SecuredBuses: []int{99},
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range overlay bus accepted: %d %s", resp2.StatusCode, raw)
	}
}

// TestHealthAndMetrics smoke-checks the observability endpoints.
func TestHealthAndMetrics(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})

	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", hr, err)
	}
	hr.Body.Close()

	mr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.Feasible == 0 || m.Pool.Misses == 0 {
		t.Fatalf("metrics = %+v, want the verify request counted", m)
	}
}

// TestOverlayErrorKeepsEncoderHealthy checks a bad overlay neither answers
// nor quarantines: the warm encoder survives the caller's mistake.
func TestOverlayErrorKeepsEncoderHealthy(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()}) // warm the pool
	resp, _ := post(t, srv, "/v1/verify", VerifyRequest{Attack: obj2Spec(), SecuredMeasurements: []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid overlay measurement accepted: %d", resp.StatusCode)
	}
	r := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if !r.Warm || r.Status != "feasible" {
		t.Fatalf("encoder lost after overlay error: %+v", r)
	}
	if ps := svc.PoolStats(); ps.Discards != 0 {
		t.Fatalf("overlay error quarantined the encoder: %+v", ps)
	}
}

// TestVerifyRejectsHugeCustomSystem: a ~110-byte body claiming a
// 4,000,000-bus custom system on one line must be refused promptly with 400,
// before anything is sized by the bus count (every bus must be on a line).
// Bodies past the 4 MiB cap are refused with 400 too.
func TestVerifyRejectsHugeCustomSystem(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	body := `{"attack":{"buses":4000000,"lines":[{"from":1,"to":2,"admittance":1}],"targets":[2]},"timeoutMs":3000}`
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); resp.StatusCode != http.StatusBadRequest || elapsed > 2*time.Second {
		t.Fatalf("huge custom system: %d after %s (%s), want a prompt 400", resp.StatusCode, elapsed, raw)
	}

	big := `{"attack":{"case":"ieee14"}` + strings.Repeat(" ", maxBodyBytes) + `}`
	resp, err = srv.Client().Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body past the cap: %d, want 400", resp.StatusCode)
	}
	if got := svc.m.badRequests.Load(); got != 2 {
		t.Fatalf("badRequests = %d, want 2", got)
	}
}

// TestSynthesizeErrorStatuses: invalid requirements are the client's fault
// (400, counted in badRequests); a run that fails on its own — here an
// unwritable proof directory — is a 500 counted in proofErrors, not a bad
// request.
func TestSynthesizeErrorStatuses(t *testing.T) {
	dir := t.TempDir()
	svc, srv := newTestServer(t, Config{ProofDir: dir})
	spec := scenariofile.SynthesisSpec{
		Attack:          scenariofile.AttackSpec{Case: "ieee14", AnyState: true},
		MaxSecuredBuses: 5,
		ExcludedBuses:   []int{99},
	}
	resp, raw := post(t, srv, "/v1/synthesize", SynthesizeRequest{Synthesis: spec})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("excluded bus 99: %d %s, want 400", resp.StatusCode, raw)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	spec.ExcludedBuses = nil
	resp, raw = post(t, srv, "/v1/synthesize", SynthesizeRequest{Synthesis: spec, Proof: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unwritable proof dir: %d %s, want 500", resp.StatusCode, raw)
	}
	if bad, proofErrs := svc.m.badRequests.Load(), svc.m.proofErrors.Load(); bad != 1 || proofErrs != 1 {
		t.Fatalf("badRequests = %d, proofErrors = %d, want 1 and 1", bad, proofErrs)
	}
}

// TestInProcessRequestsHonorTimeout: the in-process entry points apply the
// request's clamped deadline as the HTTP handlers do. Every check here
// stalls at each solver poll, so without the deadline a verify runs for
// many seconds; with timeoutMs 300 it must come back inconclusive promptly.
func TestInProcessRequestsHonorTimeout(t *testing.T) {
	ctx := context.Background()
	check := func(name string, run func(svc *Service) (string, error)) {
		svc, _ := newTestServer(t, Config{
			Faults: faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: 50 * time.Millisecond}),
		})
		start := time.Now()
		status, err := run(svc)
		if elapsed := time.Since(start); err != nil || status != "inconclusive" || elapsed > 3*time.Second {
			t.Errorf("%s with timeoutMs 300: %q, %v after %v; want inconclusive within the deadline", name, status, err, elapsed)
		}
	}
	check("verify", func(svc *Service) (string, error) {
		r, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec(), TimeoutMs: 300})
		if err != nil {
			return "", err
		}
		return r.Status, nil
	})
	check("sweep", func(svc *Service) (string, error) {
		r, err := svc.Sweep(ctx, &SweepRequest{Attack: obj2Spec(), Items: []SweepItem{{}}, TimeoutMs: 300})
		if err != nil {
			return "", err
		}
		return r.Items[0].Status, nil
	})
}

// TestInProcessProofNeedsProofDir: an in-process proof verify on a service
// with no proof directory is refused like its HTTP twin, and publishes no
// certificate of its infeasible verdict into the working directory.
func TestInProcessProofNeedsProofDir(t *testing.T) {
	svc, _ := newTestServer(t, Config{})
	before, err := filepath.Glob("verify-*.proof")
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Verify(context.Background(), &VerifyRequest{Attack: obj2Spec(), SecuredMeasurements: []int{46}, Proof: true})
	if err == nil || !strings.Contains(err.Error(), "no proof directory") || !strings.Contains(err.Error(), "http 400") {
		t.Errorf("proof verify without a proof directory = %v, want the 400 refusal", err)
	}
	if after, _ := filepath.Glob("verify-*.proof"); len(after) != len(before) {
		t.Errorf("certificates in the working directory: %v before, %v after", before, after)
	}
}
