package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segrid/internal/faultinject"
)

// This file is the work-unit scheduler's service-level acceptance suite:
// a large multi-group sweep sharing the solver workers with a stream of
// small verifies. Before the scheduler, the sweep held one opaque solve
// slot for its whole batch and small requests queued behind it; now the
// sweep decomposes into per-group units and the deficit-round-robin policy
// interleaves the verifies. The tests assert the three properties the
// refactor must preserve or deliver:
//
//   - bounded small-request latency: verifies issued mid-sweep finish while
//     the sweep is still in flight (structural, not wall-clock, so the
//     assertion holds on a loaded single-core CI box);
//   - verdict equality: every mixed-load answer equals its isolated
//     sequential baseline — fairness never changes an answer;
//   - exactly-once lease settlement: every pool checkout is returned or
//     discarded exactly once, even with group units running concurrently.
//
// The mixed load drives the in-process API (svc.Verify / svc.Sweep): the
// work still runs as scheduler units exactly like HTTP traffic, but the
// interleaving observations are not distorted by HTTP connection setup,
// which on a single-CPU runner costs more than a whole warm solve.

// mixedSweepRequest builds a sweep that plans into six groups (goal
// replacement re-specs each target into its own group) with secured-id
// overlay items per group — enough unit-queue depth that both scheduler
// workers stay busy while units remain queued. ids caps the overlay spread
// per group: 40 makes the sweep outweigh a small verify by two orders of
// magnitude; smaller values keep the fault-injection variant quick.
func mixedSweepRequest(ids int) SweepRequest {
	var items []SweepItem
	for _, target := range []int{12, 9, 13, 4, 7, 10} {
		tgt := []int{target}
		items = append(items, SweepItem{Targets: tgt})
		for id := 1; id <= ids; id++ {
			items = append(items, SweepItem{Targets: tgt, SecuredMeasurements: []int{id, 46}})
			items = append(items, SweepItem{Targets: tgt, SecuredMeasurements: []int{id}})
		}
		items = append(items, SweepItem{Targets: tgt, SecuredBuses: []int{1, 3}})
	}
	return SweepRequest{Attack: obj2Spec(), Items: items}
}

// mixedBaseline folds every sweep item into a standalone verify on a fresh
// idle server and returns the per-item answers — the sequential ground
// truth the mixed-load answers must match.
func mixedBaseline(t *testing.T, sweepReq *SweepRequest) []*VerifyResponse {
	t.Helper()
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	out := make([]*VerifyResponse, len(sweepReq.Items))
	for i, it := range sweepReq.Items {
		spec := obj2Spec()
		spec.Targets = it.Targets
		r, err := svc.Verify(context.Background(), &VerifyRequest{
			Attack:              spec,
			SecuredMeasurements: it.SecuredMeasurements,
			SecuredBuses:        it.SecuredBuses,
		})
		if err != nil {
			t.Fatalf("baseline item %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// TestMixedLoadVerifyNotStarvedBehindSweep drives the headline scenario on
// two scheduler workers: a 6-group, ~490-item sweep is in flight, and small
// verifies arriving behind it are answered before the sweep completes, with
// verdicts identical to an idle-server baseline.
func TestMixedLoadVerifyNotStarvedBehindSweep(t *testing.T) {
	sweepReq := mixedSweepRequest(40)
	baseline := mixedBaseline(t, &sweepReq)

	svc, err := New(Config{
		MaxConcurrent: 2,
		MaxQueue:      64,
		QueueWait:     5 * time.Second,
		MaxSweepItems: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	smallBase, err := svc.Verify(context.Background(), &VerifyRequest{Attack: obj2Spec()})
	if err != nil {
		t.Fatal(err)
	}
	smallSecBase, err := svc.Verify(context.Background(), &VerifyRequest{Attack: obj2Spec(), SecuredMeasurements: []int{46}})
	if err != nil {
		t.Fatal(err)
	}

	var (
		sweepDone atomic.Bool
		sweepResp *SweepResponse
		wg        sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := svc.Sweep(context.Background(), &sweepReq)
		if err != nil {
			t.Error(err)
		}
		sweepResp = r
		sweepDone.Store(true)
	}()

	// Wait until the sweep's units actually occupy the scheduler, so the
	// verifies below genuinely arrive behind it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := svc.SchedStats()
		if st.Running > 0 || st.Queued > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep units never reached the scheduler")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const smallN = 8
	beforeSweepEnd := make([]bool, smallN)
	small := make([]*VerifyResponse, smallN)
	for i := 0; i < smallN; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := VerifyRequest{Attack: obj2Spec()}
			if i%2 == 1 {
				req.SecuredMeasurements = []int{46}
			}
			r, err := svc.Verify(context.Background(), &req)
			if err != nil {
				t.Error(err)
				return
			}
			small[i] = r
			beforeSweepEnd[i] = !sweepDone.Load()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Verdict equality for the small stream against the idle baseline.
	for i, got := range small {
		want := smallBase
		if i%2 == 1 {
			want = smallSecBase
		}
		if got.Status != want.Status {
			t.Fatalf("small verify %d under load says %s, idle baseline says %s", i, got.Status, want.Status)
		}
	}
	// Verdict equality for the sweep against its folded sequential answers.
	if sweepResp.Groups != 6 {
		t.Fatalf("sweep planned %d groups, want 6 (one per target)", sweepResp.Groups)
	}
	for i, got := range sweepResp.Items {
		if got.Status != baseline[i].Status {
			t.Fatalf("sweep item %d says %s, sequential baseline says %s", i, got.Status, baseline[i].Status)
		}
	}

	// Bounded latency, structurally: the sweep outweighs the small stream
	// by two orders of magnitude of solve work, so fair scheduling must
	// finish most small verifies while the sweep is still in flight. A
	// starving scheduler (the old one-slot-per-request semantics) finishes
	// all of them after it.
	finished := 0
	for _, b := range beforeSweepEnd {
		if b {
			finished++
		}
	}
	if finished < smallN/2 {
		t.Fatalf("only %d/%d small verifies finished while the sweep was in flight — small requests are starving", finished, smallN)
	}

	// Exactly-once lease settlement: every successful checkout was settled
	// by exactly one Return or Discard once all requests are done.
	ps := svc.PoolStats()
	if got, want := ps.Returns+ps.Discards, ps.Hits+ps.Misses; got != want {
		t.Fatalf("lease ledger: %d settlements for %d checkouts (%+v)", got, want, ps)
	}
	// The sweep ran through the scheduler, not around it.
	if st := svc.SchedStats(); st.UnitsRun < 6 {
		t.Fatalf("scheduler ran %d units, want at least the sweep's 6 group units (%+v)", st.UnitsRun, st)
	}
}

// TestMixedLoadFaultInjection repeats the mixed scenario with injected
// encoder poisonings and stalls: definite answers must still equal the
// fault-free baseline, and every lease must still settle exactly once.
// Faults may cost retries or inconclusive answers, never a flipped verdict
// or a leaked lease. Runs under -race in CI.
func TestMixedLoadFaultInjection(t *testing.T) {
	sweepReq := mixedSweepRequest(8)
	baseline := mixedBaseline(t, &sweepReq)

	svc, err := New(Config{
		MaxConcurrent:  2,
		MaxQueue:       64,
		QueueWait:      5 * time.Second,
		DefaultTimeout: 5 * time.Second,
		Faults: faultinject.New(20260807, faultinject.Config{
			PPoison:       0.15,
			PStall:        0.05,
			MaxAfterPolls: 64,
			StallFor:      200 * time.Microsecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	smallBase := baseline[0] // item 0 is the unmodified base spec

	var wg sync.WaitGroup
	var sweepResp *SweepResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := svc.Sweep(context.Background(), &sweepReq)
		if err != nil {
			t.Error(err)
		}
		sweepResp = r
	}()
	const smallN = 6
	small := make([]*VerifyResponse, smallN)
	for i := 0; i < smallN; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := svc.Verify(context.Background(), &VerifyRequest{Attack: obj2Spec()})
			if err != nil {
				t.Error(err)
				return
			}
			small[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, got := range sweepResp.Items {
		if got.Status != "inconclusive" && got.Status != baseline[i].Status {
			t.Fatalf("faulted sweep item %d says %s, fault-free baseline says %s", i, got.Status, baseline[i].Status)
		}
	}
	for i, got := range small {
		if got.Status != "inconclusive" && got.Status != smallBase.Status {
			t.Fatalf("faulted small verify %d says %s, fault-free baseline says %s", i, got.Status, smallBase.Status)
		}
	}
	ps := svc.PoolStats()
	if got, want := ps.Returns+ps.Discards, ps.Hits+ps.Misses; got != want {
		t.Fatalf("lease ledger under faults: %d settlements for %d checkouts (%+v)", got, want, ps)
	}
}
