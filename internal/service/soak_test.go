package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
)

// soakItem is one workload entry: a request template plus its fault-free
// ground truth.
type soakItem struct {
	name     string
	req      VerifyRequest
	feasible bool
}

// soakWorkload builds the sweep mix over the paper's ieee14 case study and
// computes each item's ground truth directly through the core verifier —
// independently of the service code under test.
func soakWorkload(t *testing.T) []soakItem {
	t.Helper()
	caseStudy := func() scenariofile.AttackSpec { return obj2Spec() }
	topo := scenariofile.AttackSpec{
		Case:           "ieee14",
		Untaken:        []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
		Secured:        []int{46},
		NonCoreLines:   []int{5, 13},
		AllowExclusion: true,
		AllowInclusion: true,
		Targets:        []int{12},
		OnlyTargets:    true,
	}
	anyState := scenariofile.AttackSpec{
		Case:     "ieee14",
		Untaken:  []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
		AnyState: true,
	}
	allBuses := make([]int, 14)
	for i := range allBuses {
		allBuses[i] = i + 1
	}
	items := []soakItem{
		{name: "obj2", req: VerifyRequest{Attack: caseStudy()}},
		{name: "obj2-secured46", req: VerifyRequest{Attack: caseStudy(), SecuredMeasurements: []int{46}}},
		{name: "obj2-topology", req: VerifyRequest{Attack: topo}},
		{name: "anystate", req: VerifyRequest{Attack: anyState}},
		{name: "anystate-all-secured", req: VerifyRequest{Attack: anyState, SecuredBuses: allBuses}},
	}
	for i := range items {
		it := &items[i]
		sc, err := it.req.Attack.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		m, err := core.NewModel(sc)
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		if err := m.Assert(core.Overlay{SecuredBuses: it.req.SecuredBuses, SecuredMeasurements: it.req.SecuredMeasurements}); err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		res, err := m.Check()
		if err != nil || res.Inconclusive {
			t.Fatalf("%s: ground truth check failed: %v / %+v", it.name, err, res)
		}
		it.feasible = res.Feasible
	}
	return items
}

// TestSoakVerifySweep is the service's acceptance gate: a concurrent sweep
// with injected faults (cancellation, encoder poisoning, stalls, proof-sink
// failures) and aggressive deadlines, asserting the one inviolable
// property — every definite answer matches ground truth. Faults may cost
// latency, retries or inconclusive answers; they may never flip a verdict,
// publish a torn certificate or leak a poisoned encoder. Runs under -race
// in CI.
func TestSoakVerifySweep(t *testing.T) {
	items := soakWorkload(t)
	dir := t.TempDir()
	svc, srv := newTestServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       32,
		QueueWait:      500 * time.Millisecond,
		DefaultTimeout: 2 * time.Second,
		ProofDir:       dir,
		Faults: faultinject.New(20260807, faultinject.Config{
			PCancel:       0.15,
			PPoison:       0.15,
			PStall:        0.05,
			PProofErr:     0.10,
			MaxAfterPolls: 64,
			StallFor:      200 * time.Microsecond,
		}),
	})

	const (
		workers = 8
		iters   = 15
	)
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		answered   int
		shed       int
		inconcl    int
		wrong      []string
		proofFiles []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				it := items[(w+i)%len(items)]
				req := it.req
				// Vary the robustness surface: some requests want
				// certificates (and so run on a fresh encoder), some carry
				// hopeless deadlines.
				switch (w*iters + i) % 7 {
				case 2:
					req.Proof = true
				case 3:
					req.TimeoutMs = 1
				}
				resp, raw := post(t, srv, "/v1/verify", req)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					var out VerifyResponse
					if err := json.Unmarshal(raw, &out); err != nil {
						wrong = append(wrong, it.name+": undecodable body")
						break
					}
					switch out.Status {
					case "feasible", "infeasible":
						answered++
						if (out.Status == "feasible") != it.feasible {
							wrong = append(wrong, it.name+": answered "+out.Status)
						}
					case "inconclusive":
						inconcl++
						if out.UnknownReason == "" {
							wrong = append(wrong, it.name+": inconclusive without a reason")
						}
					default:
						wrong = append(wrong, it.name+": status "+out.Status)
					}
					if out.ProofFile != "" {
						proofFiles = append(proofFiles, out.ProofFile)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						wrong = append(wrong, it.name+": shed without Retry-After")
					}
				default:
					wrong = append(wrong, it.name+": http "+resp.Status)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if len(wrong) > 0 {
		t.Fatalf("%d soundness violations under fault injection:\n  %s",
			len(wrong), strings.Join(wrong, "\n  "))
	}
	if answered == 0 {
		t.Fatalf("sweep produced no definite answers (%d inconclusive, %d shed) — nothing was actually verified", inconcl, shed)
	}
	t.Logf("soak: %d answered, %d inconclusive, %d shed, %d certificates", answered, inconcl, shed, len(proofFiles))

	// Every certificate the sweep published must be independently valid.
	for _, f := range proofFiles {
		rep, err := proof.CheckFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("published certificate %s invalid: %v", f, err)
		}
		if rep.UnsatChecks == 0 {
			t.Fatalf("published certificate %s certifies nothing", f)
		}
	}
	// No staging temps may survive the sweep, published or not.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("staging temp %s left in proof dir", e.Name())
		}
	}
	if len(ents) != len(proofFiles) {
		t.Fatalf("proof dir holds %d files, want the %d published certificates", len(ents), len(proofFiles))
	}

	// Clean shutdown: no leaked leases (live == idle), then a drained pool.
	ps := svc.PoolStats()
	if ps.Live != ps.Idle {
		t.Fatalf("leaked encoder leases after sweep: %+v", ps)
	}
	srv.Close()
	svc.Close()
	if ps := svc.PoolStats(); ps.Idle != 0 {
		t.Fatalf("pool not drained at shutdown: %+v", ps)
	}

	// The ledger adds up: every request was answered, shed or refused —
	// none vanished.
	m := svc.m.snapshot(svc.PoolStats(), svc.SchedStats())
	total := m.Feasible + m.Infeasible + m.Inconclusive + m.Shed429 + m.Shed503 + m.BadRequests
	if got := uint64(workers * iters); m.Requests != got || total != got {
		t.Fatalf("request ledger: %d requests, outcomes sum to %d, want %d (%+v)", m.Requests, total, got, m)
	}
}
