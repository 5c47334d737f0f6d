package scenariofile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestLoadAttackFull(t *testing.T) {
	path := writeFile(t, `{
		"case": "ieee14",
		"untaken": [5, 10],
		"secured": [46],
		"inaccessible": [7],
		"unknownLines": [3, 7, 17],
		"outOfServiceLines": [13],
		"nonCoreLines": [5, 13],
		"securedStatusLines": [1],
		"allowExclusion": true,
		"allowInclusion": true,
		"maxMeasurements": 16,
		"maxBuses": 7,
		"refBus": 2,
		"targets": [9, 10],
		"distinctPairs": [[9, 10]],
		"strictKnowledge": true
	}`)
	spec, err := LoadAttack(path)
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if sc.System().Name != "ieee14" {
		t.Fatalf("system = %s", sc.System().Name)
	}
	if sc.Meas.Taken[5] || !sc.Meas.Taken[6] {
		t.Fatalf("untaken not applied")
	}
	if !sc.Meas.Secured[46] || sc.Meas.Accessible[7] {
		t.Fatalf("secured/inaccessible not applied")
	}
	if sc.Knowledge[3] || !sc.Knowledge[4] {
		t.Fatalf("knowledge not applied")
	}
	if sc.InService[13] || !sc.InService[12] {
		t.Fatalf("out-of-service not applied")
	}
	if sc.FixedLines[5] || sc.FixedLines[13] || !sc.FixedLines[1] {
		t.Fatalf("non-core lines not applied")
	}
	if !sc.SecuredStatus[1] || sc.SecuredStatus[2] {
		t.Fatalf("secured status not applied")
	}
	if !sc.AllowExclusion || !sc.AllowInclusion || !sc.StrictKnowledge {
		t.Fatalf("switches not applied")
	}
	if sc.MaxAlteredMeasurements != 16 || sc.MaxCompromisedBuses != 7 {
		t.Fatalf("limits not applied")
	}
	if sc.RefBus != 2 || len(sc.TargetStates) != 2 || len(sc.DistinctPairs) != 1 {
		t.Fatalf("goal not applied")
	}
}

func TestLoadAttackCustomSystem(t *testing.T) {
	path := writeFile(t, `{
		"buses": 3,
		"lines": [
			{"from": 1, "to": 2, "admittance": 5},
			{"from": 2, "to": 3, "admittance": 4}
		],
		"anyState": true
	}`)
	spec, err := LoadAttack(path)
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if sc.System().Buses != 3 || sc.System().NumLines() != 2 {
		t.Fatalf("custom system wrong: %+v", sc.System())
	}
}

func TestLoadAttackRejectsUnknownFields(t *testing.T) {
	path := writeFile(t, `{"case": "ieee14", "targgets": [9]}`)
	if _, err := LoadAttack(path); err == nil {
		t.Fatalf("typo field accepted")
	}
}

func TestLoadAttackRejectsBothSystemForms(t *testing.T) {
	path := writeFile(t, `{"case": "ieee14", "buses": 3}`)
	spec, err := LoadAttack(path)
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	if _, err := spec.Scenario(); err == nil {
		t.Fatalf("case+buses accepted")
	}
}

func TestLoadAttackBadLineID(t *testing.T) {
	path := writeFile(t, `{"case": "ieee14", "unknownLines": [99]}`)
	spec, err := LoadAttack(path)
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	if _, err := spec.Scenario(); err == nil {
		t.Fatalf("out-of-range line accepted")
	}
}

func TestLoadAttackMissingFile(t *testing.T) {
	if _, err := LoadAttack(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestLoadSynthesis(t *testing.T) {
	path := writeFile(t, `{
		"attack": {"case": "ieee14", "anyState": true},
		"maxSecuredBuses": 5,
		"requiredBuses": [1],
		"excludedBuses": [2],
		"prune": true,
		"maxIterations": 50
	}`)
	spec, err := LoadSynthesis(path)
	if err != nil {
		t.Fatalf("LoadSynthesis: %v", err)
	}
	req, err := spec.Requirements()
	if err != nil {
		t.Fatalf("Requirements: %v", err)
	}
	if req.MaxSecuredBuses != 5 || !req.Prune || req.MaxIterations != 50 {
		t.Fatalf("requirements wrong: %+v", req)
	}
	if len(req.RequiredBuses) != 1 || len(req.ExcludedBuses) != 1 {
		t.Fatalf("bus lists wrong")
	}
	if !req.Attack.AnyState {
		t.Fatalf("attack goal wrong")
	}
}

func TestLoadSynthesisBadJSON(t *testing.T) {
	path := writeFile(t, `{not json`)
	if _, err := LoadSynthesis(path); err == nil {
		t.Fatalf("bad JSON accepted")
	}
}

// TestShippedScenarioFiles parses the example scenario files shipped in the
// repository and checks they produce the documented outcomes.
func TestShippedScenarioFiles(t *testing.T) {
	root := "../../examples/scenarios"
	spec, err := LoadAttack(filepath.Join(root, "objective2-topology.json"))
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	if _, err := spec.Scenario(); err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	sspec, err := LoadSynthesis(filepath.Join(root, "synthesis-scenario2.json"))
	if err != nil {
		t.Fatalf("LoadSynthesis: %v", err)
	}
	if _, err := sspec.Requirements(); err != nil {
		t.Fatalf("Requirements: %v", err)
	}
	aspec, err := LoadAttack(filepath.Join(root, "objective1.json"))
	if err != nil {
		t.Fatalf("LoadAttack: %v", err)
	}
	if _, err := aspec.Scenario(); err != nil {
		t.Fatalf("Scenario: %v", err)
	}
}

// TestCustomSystemRejectsIsolatedBuses: every bus of a custom system must
// be on a line, which bounds the system by its line list. A bus count far
// beyond the lines is refused before anything is sized by it.
func TestCustomSystemRejectsIsolatedBuses(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"isolated bus", `{"buses":4,"lines":[{"from":1,"to":2,"admittance":1},{"from":2,"to":3,"admittance":1}]}`},
		{"huge bus count", `{"buses":4000000,"lines":[{"from":1,"to":2,"admittance":1}],"targets":[2]}`},
	} {
		spec, err := ParseAttack([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: ParseAttack: %v", tc.name, err)
		}
		if _, err := spec.Scenario(); err == nil || !strings.Contains(err.Error(), "on no line") {
			t.Fatalf("%s: Scenario err = %v, want an isolated-bus rejection", tc.name, err)
		}
	}
}
