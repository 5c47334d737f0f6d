package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"segrid/internal/faultinject"
	"segrid/internal/grid"
	"segrid/internal/scenariofile"
)

// screenableSpec is an instance the LP screen decides definitively: one
// unrestricted target state on ieee14 (a fast-accept); securing every
// measurement turns it into a fast-reject.
func screenableSpec() scenariofile.AttackSpec {
	return scenariofile.AttackSpec{Case: "ieee14", Targets: []int{5}}
}

func allMeasurements(t *testing.T) []int {
	t.Helper()
	sys, err := grid.Case("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, sys.NumMeasurements())
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

func metricsOn(t *testing.T, srv *httptest.Server) *Metrics {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decode metrics: %v (%s)", err, raw)
	}
	return &m
}

// TestScreenVerifyAnswersWithoutEncoder checks the screening fast path end
// to end: definitive verdicts in both directions, marked "screened", with
// zero encoder builds and the screening ledger advanced.
func TestScreenVerifyAnswersWithoutEncoder(t *testing.T) {
	svc, srv := newTestServer(t, Config{Screen: true})

	r := verifyOn(t, srv, VerifyRequest{Attack: screenableSpec()})
	if r.Status != "feasible" || !r.Screened {
		t.Fatalf("unrestricted target = %+v, want screened feasible", r)
	}
	if len(r.AlteredMeasurements) == 0 || len(r.StateChanges) == 0 {
		t.Fatalf("screened feasible verdict carries no witness: %+v", r)
	}

	r2 := verifyOn(t, srv, VerifyRequest{Attack: screenableSpec(), SecuredMeasurements: allMeasurements(t)})
	if r2.Status != "infeasible" || !r2.Screened {
		t.Fatalf("all-secured = %+v, want screened infeasible", r2)
	}

	if ps := svc.PoolStats(); ps.Misses != 0 || ps.Hits != 0 {
		t.Fatalf("screened answers touched the encoder pool: %+v", ps)
	}
	m := metricsOn(t, srv)
	if m.ScreenAccepts != 1 || m.ScreenRejects != 1 || m.ScreenInconclusive != 0 {
		t.Fatalf("screen ledger = accepts %d rejects %d inconclusive %d, want 1/1/0",
			m.ScreenAccepts, m.ScreenRejects, m.ScreenInconclusive)
	}
	if m.ScreenNanos == 0 {
		t.Fatal("screening latency not recorded")
	}
	if m.Feasible != 1 || m.Infeasible != 1 {
		t.Fatalf("verdict ledger = feasible %d infeasible %d, want 1/1", m.Feasible, m.Infeasible)
	}
}

// TestScreenPerRequestOverride checks the "screen" request field wins over
// the server default in both directions — the per-request ablation switch.
func TestScreenPerRequestOverride(t *testing.T) {
	off, on := false, true

	_, srv := newTestServer(t, Config{Screen: true})
	r := verifyOn(t, srv, VerifyRequest{Attack: screenableSpec(), Screen: &off})
	if r.Screened {
		t.Fatalf("screen:false request still screened: %+v", r)
	}
	if r.Status != "feasible" {
		t.Fatalf("unscreened pipeline says %s, want feasible", r.Status)
	}

	_, srv2 := newTestServer(t, Config{})
	r2 := verifyOn(t, srv2, VerifyRequest{Attack: screenableSpec(), Screen: &on})
	if !r2.Screened || r2.Status != "feasible" {
		t.Fatalf("screen:true on a screen-off server = %+v, want screened feasible", r2)
	}
}

// TestScreenProofRequestsBypass checks a proof-producing request is never
// screened: the client asked for the solver's certificate stream.
func TestScreenProofRequestsBypass(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestServer(t, Config{Screen: true, ProofDir: dir})
	r := verifyOn(t, srv, VerifyRequest{
		Attack:              screenableSpec(),
		SecuredMeasurements: allMeasurements(t),
		Proof:               true,
	})
	if r.Screened {
		t.Fatalf("proof request answered by the screen: %+v", r)
	}
	if r.Status != "infeasible" || r.ProofFile == "" {
		t.Fatalf("proof request = %+v, want infeasible with a certificate", r)
	}
}

// TestScreenSweepItemsSkipEncoders checks per-item sweep screening: a sweep
// whose items all screen definitively builds no encoder at all, and every
// item's verdict matches the unscreened run of the same sweep.
func TestScreenSweepItemsSkipEncoders(t *testing.T) {
	req := func() SweepRequest {
		return SweepRequest{
			Attack: screenableSpec(),
			Items: []SweepItem{
				{},                  // base goal, unrestricted: fast-accept
				{Targets: []int{7}}, // re-specced goal, still unrestricted
				{SecuredMeasurements: allMeasurements(t)}, // fast-reject
			},
		}
	}

	svc, srv := newTestServer(t, Config{Screen: true})
	resp, raw := post(t, srv, "/v1/sweep", req())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var screened SweepResponse
	if err := json.Unmarshal(raw, &screened); err != nil {
		t.Fatal(err)
	}
	for i, item := range screened.Items {
		if !item.Screened {
			t.Fatalf("item %d not screened: %+v", i, item)
		}
	}
	if screened.EncoderBuilds != 0 {
		t.Fatalf("fully screened sweep built %d encoders", screened.EncoderBuilds)
	}
	if ps := svc.PoolStats(); ps.Misses != 0 {
		t.Fatalf("fully screened sweep touched the pool: %+v", ps)
	}

	_, srv2 := newTestServer(t, Config{})
	resp2, raw2 := post(t, srv2, "/v1/sweep", req())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unscreened sweep status %d: %s", resp2.StatusCode, raw2)
	}
	var plain SweepResponse
	if err := json.Unmarshal(raw2, &plain); err != nil {
		t.Fatal(err)
	}
	for i := range plain.Items {
		if plain.Items[i].Status != screened.Items[i].Status {
			t.Fatalf("item %d: screened %s vs unscreened %s",
				i, screened.Items[i].Status, plain.Items[i].Status)
		}
		if plain.Items[i].Screened {
			t.Fatalf("item %d screened on a screen-off server", i)
		}
	}
}

// TestScreenMatchesUnscreenedObjective2 replays the suite's ground-truth
// case study through a screening server: whether each request is answered
// by the screen or falls through, the verdicts must be the known ones.
func TestScreenMatchesUnscreenedObjective2(t *testing.T) {
	_, srv := newTestServer(t, Config{Screen: true})
	r1 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec()})
	if r1.Status != "feasible" {
		t.Fatalf("objective 2 bare = %+v, want feasible", r1)
	}
	r2 := verifyOn(t, srv, VerifyRequest{Attack: obj2Spec(), SecuredMeasurements: []int{46}})
	if r2.Status != "infeasible" {
		t.Fatalf("objective 2 + secured 46 = %+v, want infeasible", r2)
	}
}

// TestScreenWaitsForWorker checks the LP screen is scheduled work: with the
// only worker held by a fault-stalled verify, a screen-decidable verify
// queues behind it and is not screened until the worker frees. An LP screen
// can pivot for seconds, so screening on the request goroutine would leave
// that CPU outside the worker bound.
func TestScreenWaitsForWorker(t *testing.T) {
	svc, err := New(Config{
		MaxConcurrent: 1,
		QueueWait:     10 * time.Second,
		Screen:        true,
		Faults:        faultinject.New(11, faultinject.Config{PStall: 1, MaxAfterPolls: 1, StallFor: 50 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	off := false
	holdCtx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		if _, err := svc.Verify(holdCtx, &VerifyRequest{Attack: obj2Spec(), Screen: &off}); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the holder to occupy the worker", func() bool { return svc.SchedStats().Running == 1 })

	type answer struct {
		r   *VerifyResponse
		err error
	}
	screened := make(chan answer, 1)
	go func() {
		r, err := svc.Verify(context.Background(), &VerifyRequest{Attack: screenableSpec()})
		screened <- answer{r, err}
	}()
	waitFor(t, "the screen-on verify to queue behind the holder", func() bool { return svc.SchedStats().Queued == 1 })
	select {
	case <-holderDone:
		t.Fatal("the holder finished before the screen-on verify could be observed queued")
	default:
	}
	if n := svc.m.screenAccepts.Load() + svc.m.screenRejects.Load() + svc.m.screenInconclusive.Load(); n != 0 {
		t.Fatalf("%d screens ran while the only worker was held", n)
	}

	a := <-screened
	if a.err != nil {
		t.Fatal(a.err)
	}
	// The holder's check stalls until its deadline, so the worker frees no
	// earlier than that.
	if deadline, _ := holdCtx.Deadline(); time.Now().Before(deadline) {
		t.Fatal("the screen-on verify was answered while the holder still held the worker")
	}
	<-holderDone
	if a.r.Status != "feasible" || !a.r.Screened {
		t.Fatalf("screen-on verify = %+v, want a screened feasible answer", a.r)
	}
}
