// Package grid models power transmission networks at the level the DC power
// flow model needs: buses, lines with admittances, and the measurement
// configuration of a SCADA-based state estimator.
//
// Conventions follow the reproduced paper exactly. Buses and lines are
// 1-based. For a system with l lines and b buses there are m = 2l + b
// potential measurements, numbered:
//
//	i        (1 ≤ i ≤ l)   forward power flow of line i (metered at the from-bus)
//	l + i    (1 ≤ i ≤ l)   backward power flow of line i (metered at the to-bus)
//	2l + j   (1 ≤ j ≤ b)   power consumption at bus j
package grid

import (
	"errors"
	"fmt"

	"segrid/internal/numeric"
)

// Line is a transmission line (branch). Admittance is the DC-model line
// susceptance magnitude, the reciprocal of the line reactance (per unit).
type Line struct {
	ID         int // 1-based, dense
	From, To   int // 1-based bus IDs
	Admittance float64
}

// System is a transmission network. It is immutable once NewSystem
// returns it: nothing is derived lazily, so one System may be read by any
// number of goroutines (Case shares one per built-in case).
type System struct {
	Name  string
	Buses int
	Lines []Line

	// Derived by NewSystem.
	exact    []numeric.Q // per line (1-based): ExactAdmittance of its admittance
	inLines  [][]int     // per bus (1-based): line IDs with To = bus
	outLines [][]int     // per bus: line IDs with From = bus
}

// NewSystem builds a system and validates it. Lines must be numbered 1..l
// in order.
func NewSystem(name string, buses int, lines []Line) (*System, error) {
	s := &System{Name: name, Buses: buses, Lines: append([]Line(nil), lines...)}
	if err := s.validate(); err != nil {
		return nil, err
	}
	s.derive()
	return s, nil
}

func (s *System) validate() error {
	if s.Buses < 2 {
		return errors.New("grid: system needs at least two buses")
	}
	if len(s.Lines) == 0 {
		return errors.New("grid: system needs at least one line")
	}
	seen := make(map[[2]int]bool, len(s.Lines))
	for i, ln := range s.Lines {
		if ln.ID != i+1 {
			return fmt.Errorf("grid: line at position %d has ID %d, want %d", i, ln.ID, i+1)
		}
		if ln.From < 1 || ln.From > s.Buses || ln.To < 1 || ln.To > s.Buses {
			return fmt.Errorf("grid: line %d endpoints (%d,%d) out of range 1..%d", ln.ID, ln.From, ln.To, s.Buses)
		}
		if ln.From == ln.To {
			return fmt.Errorf("grid: line %d is a self-loop at bus %d", ln.ID, ln.From)
		}
		if ln.Admittance <= 0 {
			return fmt.Errorf("grid: line %d has non-positive admittance %v", ln.ID, ln.Admittance)
		}
		key := [2]int{min(ln.From, ln.To), max(ln.From, ln.To)}
		if seen[key] {
			return fmt.Errorf("grid: parallel line %d between buses %d and %d", ln.ID, ln.From, ln.To)
		}
		seen[key] = true
	}
	return nil
}

func (s *System) derive() {
	s.exact = make([]numeric.Q, len(s.Lines)+1)
	s.inLines = make([][]int, s.Buses+1)
	s.outLines = make([][]int, s.Buses+1)
	for _, ln := range s.Lines {
		s.exact[ln.ID] = ExactAdmittance(ln.Admittance)
		s.outLines[ln.From] = append(s.outLines[ln.From], ln.ID)
		s.inLines[ln.To] = append(s.inLines[ln.To], ln.ID)
	}
}

// NumLines returns l.
func (s *System) NumLines() int { return len(s.Lines) }

// NumMeasurements returns the number of potential measurements, 2l + b.
func (s *System) NumMeasurements() int { return 2*len(s.Lines) + s.Buses }

// Line returns the line with the given 1-based ID.
func (s *System) Line(id int) Line { return s.Lines[id-1] }

// ExactAdmittance returns the admittance of the line with the given 1-based
// ID as the exact rational the formal model reads (the package function
// ExactAdmittance of its Admittance), computed once by NewSystem.
func (s *System) ExactAdmittance(id int) numeric.Q { return s.exact[id] }

// InLines returns the IDs of lines whose to-bus is j.
func (s *System) InLines(j int) []int { return s.inLines[j] }

// OutLines returns the IDs of lines whose from-bus is j.
func (s *System) OutLines(j int) []int { return s.outLines[j] }

// Neighbors returns the buses adjacent to j.
func (s *System) Neighbors(j int) []int {
	out := make([]int, 0, len(s.inLines[j])+len(s.outLines[j]))
	for _, id := range s.outLines[j] {
		out = append(out, s.Line(id).To)
	}
	for _, id := range s.inLines[j] {
		out = append(out, s.Line(id).From)
	}
	return out
}

// Connected reports whether the subgraph restricted to the given mapped
// lines (1-based, nil means all) spans all buses.
func (s *System) Connected(mapped []bool) bool {
	adj := make([][]int, s.Buses+1)
	for _, ln := range s.Lines {
		if mapped != nil && !mapped[ln.ID] {
			continue
		}
		adj[ln.From] = append(adj[ln.From], ln.To)
		adj[ln.To] = append(adj[ln.To], ln.From)
	}
	seen := make([]bool, s.Buses+1)
	stack := []int{1}
	seen[1] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == s.Buses
}

// AverageDegree returns 2l/b, the structural property the paper's
// scalability argument relies on (≈ 3 for real grids).
func (s *System) AverageDegree() float64 {
	return 2 * float64(len(s.Lines)) / float64(s.Buses)
}

// --- measurement numbering ---------------------------------------------

// ForwardFlowMeas returns the measurement ID of line i's forward flow.
func (s *System) ForwardFlowMeas(lineID int) int { return lineID }

// BackwardFlowMeas returns the measurement ID of line i's backward flow.
func (s *System) BackwardFlowMeas(lineID int) int { return len(s.Lines) + lineID }

// InjectionMeas returns the measurement ID of bus j's power consumption.
func (s *System) InjectionMeas(busID int) int { return 2*len(s.Lines) + busID }

// MeasKind describes what a measurement ID refers to.
type MeasKind int8

// Measurement kinds.
const (
	MeasForwardFlow MeasKind = iota + 1
	MeasBackwardFlow
	MeasInjection
)

// DecodeMeas splits a measurement ID into its kind and the line or bus it
// refers to.
func (s *System) DecodeMeas(measID int) (MeasKind, int, error) {
	l := len(s.Lines)
	switch {
	case measID >= 1 && measID <= l:
		return MeasForwardFlow, measID, nil
	case measID > l && measID <= 2*l:
		return MeasBackwardFlow, measID - l, nil
	case measID > 2*l && measID <= 2*l+s.Buses:
		return MeasInjection, measID - 2*l, nil
	default:
		return 0, 0, fmt.Errorf("grid: measurement ID %d out of range 1..%d", measID, s.NumMeasurements())
	}
}

// HomeBus returns the substation (bus) where a measurement physically
// resides: the from-bus for forward flows, the to-bus for backward flows,
// and the bus itself for consumption measurements.
func (s *System) HomeBus(measID int) (int, error) {
	kind, ref, err := s.DecodeMeas(measID)
	if err != nil {
		return 0, err
	}
	switch kind {
	case MeasForwardFlow:
		return s.Line(ref).From, nil
	case MeasBackwardFlow:
		return s.Line(ref).To, nil
	default:
		return ref, nil
	}
}

// MeasAtBus returns all measurement IDs homed at bus j.
func (s *System) MeasAtBus(j int) []int {
	out := make([]int, 0, len(s.outLines[j])+len(s.inLines[j])+1)
	for _, id := range s.outLines[j] {
		out = append(out, s.ForwardFlowMeas(id))
	}
	for _, id := range s.inLines[j] {
		out = append(out, s.BackwardFlowMeas(id))
	}
	out = append(out, s.InjectionMeas(j))
	return out
}
