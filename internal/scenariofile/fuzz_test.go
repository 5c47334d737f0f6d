package scenariofile

import (
	"testing"
)

// fuzzConvertible bounds the systems the fuzz harness instantiates from a
// parsed spec by their line list: a custom system's allocation is
// proportional to its line count, and the parser itself must keep a
// fuzzer-invented {"buses": 1e9} input from allocating by its bus count
// (every bus must be on a line). Named cases are bounded by construction.
func fuzzConvertible(a *AttackSpec) bool {
	return len(a.Lines) <= 128
}

// FuzzParse throws arbitrary bytes at both spec parsers and, when a spec
// parses, at the spec→model conversions. The property is absence of panics
// and runaway allocation: every malformed input must come back as an error,
// never a crash, because scenario files are the CLIs' untrusted input
// surface.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"case":"ieee14","anyState":true}`))
	f.Add([]byte(`{"case":"ieee14","maxMeasurements":3,"maxBuses":2,"targets":[9],"onlyTargets":true}`))
	f.Add([]byte(`{"buses":3,"lines":[{"from":1,"to":2,"admittance":1.5},{"from":2,"to":3,"admittance":0.5}],"refBus":2}`))
	f.Add([]byte(`{"case":"ieee14","untaken":[1,2],"secured":[3],"inaccessible":[54],"unknownLines":[5],"nonCoreLines":[5,13],"allowExclusion":true}`))
	f.Add([]byte(`{"attack":{"case":"ieee14","anyState":true},"maxSecuredBuses":5,"requiredBuses":[1],"prune":true}`))
	f.Add([]byte(`{"attack":{"case":"ieee14"},"maxSecuredMeasurements":9,"excludedMeasurements":[2]}`))
	f.Add([]byte(`{"case":"ieee14","distinctPairs":[[2,3]],"minChange":0.25,"strictKnowledge":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"buses":-1,"refBus":-7}`))
	f.Add([]byte(`{"buses":4000000,"lines":[{"from":1,"to":2,"admittance":1}],"targets":[2]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := ParseAttack(data); err == nil && fuzzConvertible(spec) {
			_, _ = spec.Scenario()
		}
		if spec, err := ParseSynthesis(data); err == nil && fuzzConvertible(&spec.Attack) {
			_, _ = spec.Requirements()
			_, _ = spec.MeasurementRequirements()
		}
	})
}
