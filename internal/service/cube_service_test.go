package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"segrid/internal/scenariofile"
)

func getMetrics(t *testing.T, srv *httptest.Server) *Metrics {
	t.Helper()
	mr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// TestCubeSynthesizeEndpoint runs bus-granular synthesis in cube-and-conquer
// mode through the service and checks verdict parity with the sequential
// endpoint contract plus the cube-mode counters.
func TestCubeSynthesizeEndpoint(t *testing.T) {
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
		CubeWorkers: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d: %s", resp.StatusCode, raw)
	}
	var out SynthesizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "found" || len(out.SecuredBuses) == 0 || len(out.SecuredBuses) > 5 {
		t.Fatalf("cube synthesize = %+v, want an architecture of at most 5 buses", out)
	}
	if out.SecuredBuses[0] != 1 {
		t.Fatalf("architecture %v misses required bus 1", out.SecuredBuses)
	}

	m := getMetrics(t, srv)
	if m.CubeRuns != 1 {
		t.Fatalf("cubeRuns = %d, want 1", m.CubeRuns)
	}
	if m.InFlightWorkers != 0 {
		t.Fatalf("inFlightWorkers = %d at rest, want 0", m.InFlightWorkers)
	}
}
