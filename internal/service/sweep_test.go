package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/scenariofile"
)

// sweepOn posts one sweep and decodes the 200 body.
func sweepOn(t *testing.T, srv *httptest.Server, req SweepRequest) *SweepResponse {
	t.Helper()
	resp, raw := post(t, srv, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var out SweepResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v (%s)", err, raw)
	}
	return &out
}

// fig5aFamily is the sweep benchmark shape: the obj2 case study swept over
// candidate security architectures (per-item secured-measurement sets), the
// exact per-iteration workload of the paper's Fig. 5a trajectory.
func fig5aFamily() []SweepItem {
	items := []SweepItem{{}} // the unmodified base
	for _, id := range []int{1, 2, 3, 4, 6, 7, 8, 9, 11, 46} {
		items = append(items, SweepItem{SecuredMeasurements: []int{id}})
	}
	items = append(items, SweepItem{SecuredBuses: []int{1, 3, 6, 8}})
	return items
}

// TestSweepGroupsAndMatchesSequential is the tentpole's acceptance test: a
// fig5a-style family answered by one /v1/sweep must (a) collapse into one
// encoder group and build exactly one encoder where a batch-unaware client
// folding each delta into its spec builds N, and (b) produce per-item
// verdicts identical to those N sequential /v1/verify calls.
func TestSweepGroupsAndMatchesSequential(t *testing.T) {
	items := fig5aFamily()

	// The batch-unaware baseline: every delta folded into a self-contained
	// spec, so every request hashes to its own pool key and cold-builds.
	seqSvc, seqSrv := newTestServer(t, Config{})
	sequential := make([]*VerifyResponse, len(items))
	for i, it := range items {
		spec := obj2Spec()
		spec.Secured = append(spec.Secured, it.SecuredMeasurements...)
		req := VerifyRequest{Attack: spec}
		// Folding a secured bus into the spec needs the bus's measurement
		// set; a batch-unaware client passes it as the overlay instead —
		// still a per-request spec+overlay pair the sweep must reproduce.
		req.SecuredBuses = it.SecuredBuses
		sequential[i] = verifyOn(t, seqSrv, req)
	}
	seqBuilds := seqSvc.PoolStats().Misses

	swSvc, swSrv := newTestServer(t, Config{})
	out := sweepOn(t, swSrv, SweepRequest{Attack: obj2Spec(), Items: items})
	if len(out.Items) != len(items) {
		t.Fatalf("sweep answered %d items, want %d", len(out.Items), len(items))
	}
	if out.Groups != 1 || out.EncoderBuilds != 1 {
		t.Fatalf("sweep used %d groups / %d builds, want 1/1 (overlay-only family)", out.Groups, out.EncoderBuilds)
	}
	var feasible, infeasible int
	for i, got := range out.Items {
		want := sequential[i]
		if got.Status != want.Status {
			t.Fatalf("item %d: sweep says %s, sequential says %s", i, got.Status, want.Status)
		}
		switch got.Status {
		case "feasible":
			feasible++
		case "infeasible":
			infeasible++
		default:
			t.Fatalf("item %d inconclusive without faults: %+v", i, got)
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("family is degenerate (%d feasible, %d infeasible): the equivalence proves nothing", feasible, infeasible)
	}

	// The amortization claim, on the pool's own ledger. The sequential
	// baseline pays one cold build per distinct folded spec — everything
	// except the bus-overlay item, which shares the base item's key.
	swBuilds := swSvc.PoolStats().Misses
	if swBuilds >= seqBuilds {
		t.Fatalf("sweep built %d encoders, sequential %d — no amortization", swBuilds, seqBuilds)
	}
	if want := uint64(len(items) - 1); swBuilds != 1 || seqBuilds != want {
		t.Fatalf("builds = %d (sweep) / %d (sequential), want 1 / %d", swBuilds, seqBuilds, want)
	}
}

// TestSweepRegrouping checks the planning rules: tightened resource bounds
// stay in the base group as scoped overlays, while goal replacement and
// bound loosening re-spec into their own groups — and every verdict still
// matches its folded-spec sequential answer.
func TestSweepRegrouping(t *testing.T) {
	base := obj2Spec()
	base.MaxMeasurements = 4
	two, six, lift := 2, 6, 0
	items := []SweepItem{
		{},                               // base group
		{MaxAlteredMeasurements: &two},   // tighten 4→2: overlay, base group
		{MaxAlteredMeasurements: &six},   // loosen 4→6: respec
		{MaxAlteredMeasurements: &lift},  // lift to unbounded: respec
		{Targets: []int{9}},              // goal replacement: respec
		{SecuredMeasurements: []int{46}}, // overlay, base group
	}
	folded := func(it SweepItem) scenariofile.AttackSpec {
		spec := base
		if it.MaxAlteredMeasurements != nil {
			spec.MaxMeasurements = *it.MaxAlteredMeasurements
		}
		if it.Targets != nil {
			spec.Targets = it.Targets
		}
		spec.Secured = append(spec.Secured, it.SecuredMeasurements...)
		return spec
	}

	_, seqSrv := newTestServer(t, Config{})
	sequential := make([]*VerifyResponse, len(items))
	for i, it := range items {
		sequential[i] = verifyOn(t, seqSrv, VerifyRequest{Attack: folded(it)})
	}

	_, swSrv := newTestServer(t, Config{})
	out := sweepOn(t, swSrv, SweepRequest{Attack: base, Items: items})
	if out.Groups != 4 {
		t.Fatalf("planned %d groups, want 4 (base + loosened + lifted + retargeted)", out.Groups)
	}
	for i, got := range out.Items {
		if got.Status != sequential[i].Status {
			t.Fatalf("item %d: sweep says %s, folded sequential says %s", i, got.Status, sequential[i].Status)
		}
		if got.Status != "feasible" && got.Status != "infeasible" {
			t.Fatalf("item %d inconclusive without faults: %+v", i, got)
		}
	}
}

// TestSweepValidation checks malformed sweeps fail whole with 400 before any
// solving: planning validates every item up front.
func TestSweepValidation(t *testing.T) {
	svc, srv := newTestServer(t, Config{MaxSweepItems: 4})
	neg := -1
	tiny := obj2Spec()
	tiny.MinChange = 1e-10 // below the 1e-9 quantum: would round to no threshold
	cases := []struct {
		name string
		req  SweepRequest
	}{
		{"no items", SweepRequest{Attack: obj2Spec()}},
		{"too many items", SweepRequest{Attack: obj2Spec(), Items: make([]SweepItem, 5)}},
		{"negative bound", SweepRequest{Attack: obj2Spec(), Items: []SweepItem{{MaxAlteredMeasurements: &neg}}}},
		{"bus out of range", SweepRequest{Attack: obj2Spec(), Items: []SweepItem{{}, {SecuredBuses: []int{99}}}}},
		{"measurement out of range", SweepRequest{Attack: obj2Spec(), Items: []SweepItem{{}, {SecuredMeasurements: []int{999}}}}},
		{"target out of range", SweepRequest{Attack: obj2Spec(), Items: []SweepItem{{}, {Targets: []int{99}}}}},
		{"minChange below quantum", SweepRequest{Attack: tiny, Items: []SweepItem{{}}}},
	}
	for _, tc := range cases {
		resp, raw := post(t, srv, "/v1/sweep", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, raw)
		}
	}
	// Nothing solved, nothing checked out.
	if ps := svc.PoolStats(); ps.Misses != 0 || ps.Hits != 0 {
		t.Fatalf("validation-rejected sweeps touched the pool: %+v", ps)
	}
}

// TestShedRetryAfter pins the shared Retry-After computation: the header is
// the ceiling of the advertised wait in whole seconds (never a hardcoded 1,
// never 0), and the JSON body carries the exact milliseconds.
func TestShedRetryAfter(t *testing.T) {
	cases := []struct {
		wait   time.Duration
		header string
		ms     int64
	}{
		{50 * time.Millisecond, "1", 50}, // sub-second: header rounds up, ms is exact
		{2 * time.Second, "2", 2000},     // the old 503 math said 3 here
		{2500 * time.Millisecond, "3", 2500},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeShed(rec, http.StatusTooManyRequests, "x", tc.wait)
		if got := rec.Header().Get("Retry-After"); got != tc.header {
			t.Fatalf("wait %v: Retry-After header %q, want %q", tc.wait, got, tc.header)
		}
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.RetryAfterMs != tc.ms {
			t.Fatalf("wait %v: retryAfterMs %d, want %d", tc.wait, body.RetryAfterMs, tc.ms)
		}
	}

	// Both shed paths derive from the same clamped computation.
	svc, err := New(Config{QueueWait: 1300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d := svc.shedDelay(); d != 1300*time.Millisecond {
		t.Fatalf("shedDelay = %v, want the configured queue wait", d)
	}
	svc2, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := svc2.shedDelay(); d != svc2.cfg.QueueWait {
		t.Fatalf("default shedDelay = %v, want default queue wait %v", d, svc2.cfg.QueueWait)
	}
}

// TestSoakSweep is the sweep's fault-injection gate, the batched analogue of
// TestSoakVerifySweep: concurrent sweeps under injected cancellation,
// poisoning and stalls plus hopeless deadlines. The inviolable properties:
// every definite per-item verdict matches ground truth (a torn sweep must
// never publish a partial result as definitive), every lease settles exactly
// once (live == idle afterwards, pool drains clean), and the sweep ledger
// adds up. Runs under -race in CI.
func TestSoakSweep(t *testing.T) {
	// Ground truth straight through core, independent of the service.
	family := fig5aFamily()
	truth := make([]bool, len(family))
	for i, it := range family {
		spec := obj2Spec()
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewModel(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Assert(core.Overlay{SecuredBuses: it.SecuredBuses, SecuredMeasurements: it.SecuredMeasurements}); err != nil {
			t.Fatal(err)
		}
		res, err := m.Check()
		if err != nil || res.Inconclusive {
			t.Fatalf("ground truth item %d: %v / %+v", i, err, res)
		}
		truth[i] = res.Feasible
	}

	svc, srv := newTestServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       32,
		QueueWait:      500 * time.Millisecond,
		DefaultTimeout: 5 * time.Second,
		Faults: faultinject.New(20260808, faultinject.Config{
			PCancel:       0.15,
			PPoison:       0.15,
			PStall:        0.05,
			MaxAfterPolls: 64,
			StallFor:      200 * time.Microsecond,
		}),
	})

	const (
		workers = 6
		iters   = 6
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		okSweeps int
		okItems  int
		definite int
		inconcl  int
		shed     int
		wrong    []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := SweepRequest{Attack: obj2Spec(), Items: family}
				if (w+i)%5 == 3 {
					// A hopeless deadline: the sweep must freeze remaining
					// items at inconclusive, never guess.
					req.TimeoutMs = 1
				}
				resp, raw := post(t, srv, "/v1/sweep", req)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					var out SweepResponse
					if err := json.Unmarshal(raw, &out); err != nil {
						wrong = append(wrong, "undecodable sweep body")
						break
					}
					okSweeps++
					okItems += len(out.Items)
					if len(out.Items) != len(family) {
						wrong = append(wrong, "sweep dropped items")
						break
					}
					for j, item := range out.Items {
						switch item.Status {
						case "feasible", "infeasible":
							definite++
							if (item.Status == "feasible") != truth[j] {
								wrong = append(wrong, "item "+item.Status+" against ground truth")
							}
						case "inconclusive":
							inconcl++
							if item.UnknownReason == "" {
								wrong = append(wrong, "inconclusive item without a reason")
							}
						default:
							wrong = append(wrong, "item status "+item.Status)
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						wrong = append(wrong, "shed without Retry-After")
					}
				default:
					wrong = append(wrong, "http "+resp.Status)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if len(wrong) > 0 {
		t.Fatalf("%d sweep soundness violations under fault injection:\n  %s",
			len(wrong), strings.Join(wrong, "\n  "))
	}
	if definite == 0 {
		t.Fatalf("soak produced no definite per-item answers (%d inconclusive, %d shed)", inconcl, shed)
	}
	t.Logf("sweep soak: %d sweeps ok, %d items (%d definite, %d inconclusive), %d shed",
		okSweeps, okItems, definite, inconcl, shed)

	// Every lease settled exactly once: nothing outstanding, pool drains
	// clean, and dropped encoders went through the close hook.
	ps := svc.PoolStats()
	if ps.Live != ps.Idle {
		t.Fatalf("leaked sweep leases: %+v", ps)
	}
	srv.Close()
	svc.Close()
	if ps := svc.PoolStats(); ps.Idle != 0 || ps.Live != 0 {
		t.Fatalf("pool not drained at shutdown: %+v", ps)
	}

	// The sweep ledger adds up: every accepted sweep's items produced
	// exactly one counted verdict each.
	m := svc.m.snapshot(svc.PoolStats(), svc.SchedStats())
	if m.Sweeps != uint64(okSweeps) || m.SweepItems != uint64(okItems) {
		t.Fatalf("sweep ledger: %d sweeps / %d items, want %d / %d", m.Sweeps, m.SweepItems, okSweeps, okItems)
	}
	if got := m.Feasible + m.Infeasible + m.Inconclusive; got != uint64(definite+inconcl) {
		t.Fatalf("verdict ledger: %d counted, want %d", got, definite+inconcl)
	}
	if m.Requests != uint64(workers*iters) {
		t.Fatalf("requests = %d, want %d", m.Requests, workers*iters)
	}
}

// TestSweepRetainsNoRequest sends 64 sweeps with distinct specs through a
// two-encoder pool and checks the server keeps none of the requests once
// they are answered: the only per-spec state is the pool's, whose keys are
// canonical copies of the spec, so at most two encoders outlive their
// requests and no request does. The specs are custom systems, which may
// each be megabytes.
func TestSweepRetainsNoRequest(t *testing.T) {
	svc, err := New(Config{PoolMaxLive: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const n = 64
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		req := &SweepRequest{
			Attack: scenariofile.AttackSpec{
				Buses: 3,
				Lines: []scenariofile.LineSpec{
					{From: 1, To: 2, Admittance: 1 + float64(i)/n},
					{From: 2, To: 3, Admittance: 0.5},
				},
				AnyState: true,
			},
			Items: []SweepItem{{}},
		}
		runtime.SetFinalizer(req, func(*SweepRequest) { freed.Add(1) })
		resp, err := svc.Sweep(context.Background(), req)
		if err != nil || resp.Items[0].Status != "feasible" {
			t.Fatalf("sweep %d = %+v, %v; want feasible", i, resp, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < n-2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d answered requests were freed, want at least %d", freed.Load(), n, n-2)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.PoolStats(); st.Live > 2 {
		t.Fatalf("pool holds %d encoders, want at most 2", st.Live)
	}
}

// chainSpec is a custom-system attack spec over a buses-long chain, over a
// megabyte once marshalled, with goal: targets or anyState.
func chainSpec(t *testing.T, buses int, targets []int) (scenariofile.AttackSpec, int) {
	t.Helper()
	spec := scenariofile.AttackSpec{Buses: buses, Targets: targets, AnyState: targets == nil}
	for j := 1; j < buses; j++ {
		spec.Lines = append(spec.Lines, scenariofile.LineSpec{From: j, To: j + 1, Admittance: 1.5})
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 1<<20 {
		t.Fatalf("chain spec is %d bytes, want at least 1 MiB", len(raw))
	}
	return spec, len(raw)
}

// planAllocs plans an n-item sweep over base, checks it forms wantGroups
// groups holding every item, and returns the bytes planning allocated. Two
// collections first empty every sync.Pool, so the first marshal of every
// measured plan regrows json's pooled buffer from cold.
func planAllocs(t *testing.T, base scenariofile.AttackSpec, n, wantGroups int, item func(i int) SweepItem) uint64 {
	t.Helper()
	s := &Service{cfg: Config{}.withDefaults()}
	req := &SweepRequest{Attack: base, Items: make([]SweepItem, n)}
	for i := range req.Items {
		req.Items[i] = item(i)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups, herr := s.planSweep(req, false)
	runtime.ReadMemStats(&after)
	if herr != nil {
		t.Fatalf("plan %d items: %s", n, herr.msg)
	}
	planned := 0
	for _, g := range groups {
		planned += len(g.items)
	}
	if len(groups) != wantGroups || planned != n {
		t.Fatalf("plan %d items: %d groups holding %d items, want %d groups holding all", n, len(groups), planned, wantGroups)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestPlanSweepMarshalsBaseSpecOnce plans overlay-only sweeps over a
// custom system whose spec exceeds a megabyte. Every item runs on the base
// spec, so planning 256 items must allocate about what planning one does:
// the base spec's pool key is marshalled once, not once per item.
func TestPlanSweepMarshalsBaseSpecOnce(t *testing.T) {
	const buses = 25000
	base, size := chainSpec(t, buses, nil)
	overlay := func(i int) SweepItem { return SweepItem{SecuredBuses: []int{1 + i%buses}} }
	// Both plans marshal once from a cold buffer; one marshal per item
	// costs hundreds of spec sizes.
	one, many := planAllocs(t, base, 1, 1, overlay), planAllocs(t, base, 256, 1, overlay)
	if limit := one + 8*uint64(size); many > limit {
		t.Fatalf("planning 256 items allocated %d bytes, one item %d: over %d, more than one spec marshal per sweep",
			many, one, limit)
	}
}

// TestPlanSweepMarshalsEachDeltaOnce plans goal-replacement sweeps over the
// same chain: 256 items over 7 distinct targets form 7 re-specced groups,
// and must allocate about what 7 items, one per target, do: each distinct
// delta's spec is marshalled once, not once per item. Each of the 7
// marshals may regrow json's pooled buffer from cold, by up to about eight
// spec sizes under the race detector (whose sync.Pool drops one Put in
// four); a marshal per item costs hundreds of spec sizes.
func TestPlanSweepMarshalsEachDeltaOnce(t *testing.T) {
	base, size := chainSpec(t, 25000, []int{2})
	goal := func(i int) SweepItem { return SweepItem{Targets: []int{3 + i%7}} }
	seven, many := planAllocs(t, base, 7, 7, goal), planAllocs(t, base, 256, 7, goal)
	if limit := seven + 7*8*uint64(size); many > limit {
		t.Fatalf("planning 256 items allocated %d bytes, seven items %d: over %d, more than one spec marshal per delta",
			many, seven, limit)
	}
}
