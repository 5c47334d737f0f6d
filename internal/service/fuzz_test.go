package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"segrid/internal/scenariofile"
)

// FuzzSweepRequest throws arbitrary bytes at the JSON API's decode and plan
// stages — decodeStrict, then planSweep — without solving anything. A
// verify is planned as a one-item sweep, so the seeds include verify bodies
// in that form. The property: no panic, every rejection is a 400, and every
// accepted plan places each item exactly once in a group whose planned
// scenario and overlays validate, so group execution cannot meet a caller
// error mid-batch, and whose pool key's Shape decodes to a spec that builds
// and marshals back to the same Shape, so a cold build encodes exactly the
// planned spec (floats such as admittances and minChange included).
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"attack":{"case":"ieee14","anyState":true},"items":[{"securedBuses":[1,3,6,8,9]}]}`,
		`{"attack":{"case":"ieee14","untaken":[5,10,14,19,22,27,30,35,43,52],"targets":[12],"onlyTargets":true},"items":[{"securedMeasurements":[46]}]}`,
		`{"attack":{"case":"ieee14","untaken":[5,10,14,19,22,27,30,35,43,52],"targets":[12],"onlyTargets":true},"items":[{},{"securedMeasurements":[46]},{"targets":[9]}]}`,
		`{"attack":{"case":"ieee30","anyState":true,"maxMeasurements":6},"items":[{"maxAlteredMeasurements":4},{"maxAlteredMeasurements":0},{"maxCompromisedBuses":2}]}`,
		`{"attack":{"buses":3,"lines":[{"from":1,"to":2,"admittance":1.5},{"from":2,"to":3,"admittance":0.5}],"anyState":true},"items":[{"securedBuses":[2]}]}`,
		`{"attack":{"buses":4000000,"lines":[{"from":1,"to":2,"admittance":1}],"targets":[2]},"items":[{}],"timeoutMs":3000}`,
		`{"attack":{"case":"ieee14","targets":[99]},"items":[{}]}`,
		`{"attack":{"case":"ieee14"},"items":[]}`,
		`{"attack":{"case":"ieee14"},"items":[{"securedBuses":[0]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
			return
		}
		// planSweep reads only the configuration, so a bare Service plans
		// without starting a scheduler.
		s := &Service{cfg: Config{}.withDefaults()}
		groups, herr := s.planSweep(&req, false)
		if herr != nil {
			if herr.status != http.StatusBadRequest {
				t.Fatalf("plan rejected with %d: %s", herr.status, herr.msg)
			}
			return
		}
		placed := make([]bool, len(req.Items))
		for _, g := range groups {
			if err := g.sc.Validate(); err != nil {
				t.Fatalf("accepted group's scenario is invalid: %v", err)
			}
			var spec scenariofile.AttackSpec
			if err := json.Unmarshal([]byte(g.key.Shape), &spec); err != nil {
				t.Fatalf("group key shape does not decode: %v", err)
			}
			if again, err := json.Marshal(&spec); err != nil || string(again) != g.key.Shape {
				t.Fatalf("group key shape %s re-marshals to %s (%v)", g.key.Shape, again, err)
			}
			if _, err := spec.Scenario(); err != nil {
				t.Fatalf("group key shape %s does not build: %v", g.key.Shape, err)
			}
			sys := g.sc.System()
			for _, it := range g.items {
				if placed[it.index] {
					t.Fatalf("item %d planned twice", it.index)
				}
				placed[it.index] = true
				for _, j := range it.ov.SecuredBuses {
					if j < 1 || j > sys.Buses {
						t.Fatalf("item %d: secured bus %d accepted", it.index, j)
					}
				}
				for _, id := range it.ov.SecuredMeasurements {
					if id < 1 || id > sys.NumMeasurements() {
						t.Fatalf("item %d: secured measurement %d accepted", it.index, id)
					}
				}
				if it.ov.MaxAltered < 0 || it.ov.MaxBuses < 0 {
					t.Fatalf("item %d: negative overlay bound accepted", it.index)
				}
			}
		}
		for i, ok := range placed {
			if !ok {
				t.Fatalf("item %d not planned", i)
			}
		}
	})
}
