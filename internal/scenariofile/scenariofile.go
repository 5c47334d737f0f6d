// Package scenariofile loads attack-verification and synthesis scenarios
// from JSON files, the input format of the ufdiverify and synthsec command
// line tools. The format mirrors the paper's Table II/III inputs: which
// measurements are taken/secured/accessible, the attacker's knowledge,
// topology attributes, resource limits and the attack goal.
package scenariofile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/synth"
)

// LineSpec describes a custom system line.
type LineSpec struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Admittance float64 `json:"admittance"`
}

// AttackSpec is the JSON form of a core.Scenario.
type AttackSpec struct {
	// Case names a built-in test system (ieee14, ieee30, ieee57, ieee118,
	// ieee300). Alternatively give Buses and Lines for a custom system.
	Case  string     `json:"case,omitempty"`
	Buses int        `json:"buses,omitempty"`
	Lines []LineSpec `json:"lines,omitempty"`

	Untaken      []int `json:"untaken,omitempty"`
	Secured      []int `json:"secured,omitempty"`
	Inaccessible []int `json:"inaccessible,omitempty"`

	UnknownLines       []int `json:"unknownLines,omitempty"`
	OutOfServiceLines  []int `json:"outOfServiceLines,omitempty"`
	NonCoreLines       []int `json:"nonCoreLines,omitempty"`
	SecuredStatusLines []int `json:"securedStatusLines,omitempty"`

	AllowExclusion bool `json:"allowExclusion,omitempty"`
	AllowInclusion bool `json:"allowInclusion,omitempty"`

	MaxMeasurements int `json:"maxMeasurements,omitempty"`
	MaxBuses        int `json:"maxBuses,omitempty"`

	RefBus          int      `json:"refBus,omitempty"` // default 1
	Targets         []int    `json:"targets,omitempty"`
	OnlyTargets     bool     `json:"onlyTargets,omitempty"`
	UntouchedStates []int    `json:"untouchedStates,omitempty"`
	AnyState        bool     `json:"anyState,omitempty"`
	DistinctPairs   [][2]int `json:"distinctPairs,omitempty"`
	StrictKnowledge bool     `json:"strictKnowledge,omitempty"`
	MinChange       float64  `json:"minChange,omitempty"`
}

// SynthesisSpec is the JSON form of synth.Requirements. Setting
// maxSecuredMeasurements instead of maxSecuredBuses selects the
// measurement-granular mechanism.
type SynthesisSpec struct {
	Attack                 AttackSpec `json:"attack"`
	MaxSecuredBuses        int        `json:"maxSecuredBuses,omitempty"`
	ExcludedBuses          []int      `json:"excludedBuses,omitempty"`
	RequiredBuses          []int      `json:"requiredBuses,omitempty"`
	Prune                  bool       `json:"prune,omitempty"`
	MaxIterations          int        `json:"maxIterations,omitempty"`
	MaxSecuredMeasurements int        `json:"maxSecuredMeasurements,omitempty"`
	ExcludedMeasurements   []int      `json:"excludedMeasurements,omitempty"`
	RequiredMeasurements   []int      `json:"requiredMeasurements,omitempty"`
}

// MeasurementGranular reports whether the spec asks for measurement-level
// synthesis.
func (s *SynthesisSpec) MeasurementGranular() bool { return s.MaxSecuredMeasurements > 0 }

// MeasurementRequirements converts the spec for the measurement-granular
// mechanism.
func (s *SynthesisSpec) MeasurementRequirements() (*synth.MeasurementRequirements, error) {
	attack, err := s.Attack.Scenario()
	if err != nil {
		return nil, err
	}
	return &synth.MeasurementRequirements{
		Attack:                 attack,
		MaxSecuredMeasurements: s.MaxSecuredMeasurements,
		ExcludedMeasurements:   s.ExcludedMeasurements,
		RequiredMeasurements:   s.RequiredMeasurements,
		MaxIterations:          s.MaxIterations,
	}, nil
}

// system resolves the spec's network.
func (a *AttackSpec) system() (*grid.System, error) {
	if a.Case != "" {
		if a.Buses != 0 || len(a.Lines) != 0 {
			return nil, fmt.Errorf("scenariofile: give either case or buses+lines, not both")
		}
		return grid.Case(a.Case)
	}
	// Every bus of a custom system must be on a line: an isolated bus is
	// a state no measurement observes. The rule also bounds the system by
	// its line list (buses ≤ 2·lines), checked before anything is sized by
	// the bus count, so a short spec cannot claim millions of buses.
	if a.Buses > 2*len(a.Lines) {
		return nil, fmt.Errorf("scenariofile: %d buses on %d lines: some bus is on no line", a.Buses, len(a.Lines))
	}
	lines := make([]grid.Line, len(a.Lines))
	for i, l := range a.Lines {
		lines[i] = grid.Line{ID: i + 1, From: l.From, To: l.To, Admittance: l.Admittance}
	}
	sys, err := grid.NewSystem("custom", a.Buses, lines)
	if err != nil {
		return nil, err
	}
	onLine := make([]bool, sys.Buses+1)
	for _, l := range sys.Lines {
		onLine[l.From], onLine[l.To] = true, true
	}
	for b := 1; b <= sys.Buses; b++ {
		if !onLine[b] {
			return nil, fmt.Errorf("scenariofile: bus %d is on no line", b)
		}
	}
	return sys, nil
}

// lineFlagSlice builds a 1-based per-line flag slice from an ID list.
func lineFlagSlice(l int, ids []int, def bool) ([]bool, error) {
	out := make([]bool, l+1)
	for i := 1; i <= l; i++ {
		out[i] = def
	}
	for _, id := range ids {
		if id < 1 || id > l {
			return nil, fmt.Errorf("scenariofile: line %d out of range 1..%d", id, l)
		}
		out[id] = !def
	}
	return out, nil
}

// Scenario converts the spec to a core.Scenario.
func (a *AttackSpec) Scenario() (*core.Scenario, error) {
	sys, err := a.system()
	if err != nil {
		return nil, err
	}
	sc := core.NewScenario(sys)
	if len(a.Untaken) > 0 {
		if err := sc.Meas.Untake(a.Untaken...); err != nil {
			return nil, err
		}
	}
	if len(a.Secured) > 0 {
		if err := sc.Meas.Secure(a.Secured...); err != nil {
			return nil, err
		}
	}
	if len(a.Inaccessible) > 0 {
		if err := sc.Meas.Restrict(a.Inaccessible...); err != nil {
			return nil, err
		}
	}
	l := sys.NumLines()
	if len(a.UnknownLines) > 0 {
		if sc.Knowledge, err = lineFlagSlice(l, a.UnknownLines, true); err != nil {
			return nil, err
		}
	}
	if len(a.OutOfServiceLines) > 0 {
		if sc.InService, err = lineFlagSlice(l, a.OutOfServiceLines, true); err != nil {
			return nil, err
		}
	}
	if len(a.NonCoreLines) > 0 {
		// Non-core lines are the openable ones; everything else is fixed.
		if sc.FixedLines, err = lineFlagSlice(l, a.NonCoreLines, true); err != nil {
			return nil, err
		}
	}
	if len(a.SecuredStatusLines) > 0 {
		if sc.SecuredStatus, err = lineFlagSlice(l, a.SecuredStatusLines, false); err != nil {
			return nil, err
		}
	}
	sc.AllowExclusion = a.AllowExclusion
	sc.AllowInclusion = a.AllowInclusion
	sc.MaxAlteredMeasurements = a.MaxMeasurements
	sc.MaxCompromisedBuses = a.MaxBuses
	if a.RefBus != 0 {
		sc.RefBus = a.RefBus
	}
	sc.TargetStates = a.Targets
	sc.OnlyTargets = a.OnlyTargets
	sc.UntouchedStates = a.UntouchedStates
	sc.AnyState = a.AnyState
	sc.DistinctPairs = a.DistinctPairs
	sc.StrictKnowledge = a.StrictKnowledge
	sc.MinChange = a.MinChange
	return sc, nil
}

// Requirements converts the spec to synth.Requirements.
func (s *SynthesisSpec) Requirements() (*synth.Requirements, error) {
	attack, err := s.Attack.Scenario()
	if err != nil {
		return nil, err
	}
	return &synth.Requirements{
		Attack:          attack,
		MaxSecuredBuses: s.MaxSecuredBuses,
		ExcludedBuses:   s.ExcludedBuses,
		RequiredBuses:   s.RequiredBuses,
		Prune:           s.Prune,
		MaxIterations:   s.MaxIterations,
	}, nil
}

// ParseAttack decodes an AttackSpec from JSON bytes.
func ParseAttack(data []byte) (*AttackSpec, error) {
	var spec AttackSpec
	if err := unmarshalStrict(data, &spec); err != nil {
		return nil, fmt.Errorf("scenariofile: parse: %w", err)
	}
	return &spec, nil
}

// ParseSynthesis decodes a SynthesisSpec from JSON bytes.
func ParseSynthesis(data []byte) (*SynthesisSpec, error) {
	var spec SynthesisSpec
	if err := unmarshalStrict(data, &spec); err != nil {
		return nil, fmt.Errorf("scenariofile: parse: %w", err)
	}
	return &spec, nil
}

// LoadAttack reads an AttackSpec JSON file.
func LoadAttack(path string) (*AttackSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenariofile: %w", err)
	}
	spec, err := ParseAttack(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// LoadSynthesis reads a SynthesisSpec JSON file.
func LoadSynthesis(path string) (*SynthesisSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenariofile: %w", err)
	}
	spec, err := ParseSynthesis(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// unmarshalStrict rejects unknown fields so typos in scenario files surface
// as errors instead of silently weakening the attack model.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
