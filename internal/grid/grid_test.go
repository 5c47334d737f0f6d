package grid

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestIEEE14Structure(t *testing.T) {
	s := IEEE14()
	if s.Buses != 14 || s.NumLines() != 20 {
		t.Fatalf("ieee14 = %d buses / %d lines, want 14/20", s.Buses, s.NumLines())
	}
	if s.NumMeasurements() != 54 {
		t.Fatalf("NumMeasurements = %d, want 54 (paper Section III-I)", s.NumMeasurements())
	}
	if !s.Connected(nil) {
		t.Fatalf("ieee14 not connected")
	}
	// Spot-check against the paper's Table II.
	l1 := s.Line(1)
	if l1.From != 1 || l1.To != 2 || math.Abs(l1.Admittance-16.90) > 1e-9 {
		t.Fatalf("line 1 = %+v, want 1→2 @16.90", l1)
	}
	l13 := s.Line(13)
	if l13.From != 6 || l13.To != 13 || math.Abs(l13.Admittance-7.68) > 1e-9 {
		t.Fatalf("line 13 = %+v, want 6→13 @7.68", l13)
	}
	l20 := s.Line(20)
	if l20.From != 13 || l20.To != 14 || math.Abs(l20.Admittance-2.87) > 1e-9 {
		t.Fatalf("line 20 = %+v, want 13→14 @2.87", l20)
	}
}

func TestIEEE30Structure(t *testing.T) {
	s := IEEE30()
	if s.Buses != 30 || s.NumLines() != 41 {
		t.Fatalf("ieee30 = %d buses / %d lines, want 30/41", s.Buses, s.NumLines())
	}
	if !s.Connected(nil) {
		t.Fatalf("ieee30 not connected")
	}
	if d := s.AverageDegree(); d < 2.5 || d > 3.0 {
		t.Fatalf("ieee30 average degree %v outside realistic range", d)
	}
}

func TestSyntheticCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		buses int
		lines int
	}{
		{"ieee57", 57, 80},
		{"ieee118", 118, 186},
		{"ieee300", 300, 411},
	} {
		s, err := Case(tc.name)
		if err != nil {
			t.Fatalf("Case(%s): %v", tc.name, err)
		}
		if s.Buses != tc.buses || s.NumLines() != tc.lines {
			t.Fatalf("%s = %d/%d, want %d/%d", tc.name, s.Buses, s.NumLines(), tc.buses, tc.lines)
		}
		if !s.Connected(nil) {
			t.Fatalf("%s not connected", tc.name)
		}
		if d := s.AverageDegree(); d < 2.3 || d > 3.5 {
			t.Fatalf("%s average degree %v outside grid-like range", tc.name, d)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic("x", 40, 60, 9)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	b, err := Synthetic("x", 40, 60, 9)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			t.Fatalf("synthetic generator not deterministic at line %d", i+1)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic("x", 10, 5, 1); err == nil {
		t.Fatalf("lines < buses accepted")
	}
	if _, err := Synthetic("x", 4, 100, 1); err == nil {
		t.Fatalf("too many lines accepted")
	}
}

func TestUnknownCase(t *testing.T) {
	if _, err := Case("ieee9999"); err == nil {
		t.Fatalf("unknown case accepted")
	}
}

// freshCases builds every registered case anew, as Case built it at first
// use.
func freshCases(t *testing.T) map[string]*System {
	t.Helper()
	out := map[string]*System{"ieee14": IEEE14(), "ieee30": IEEE30()}
	for _, c := range []struct {
		name         string
		buses, lines int
	}{{"ieee57", 57, 80}, {"ieee118", 118, 186}, {"ieee300", 300, 411}} {
		s, err := Synthetic(c.name, c.buses, c.lines, uint64(c.buses))
		if err != nil {
			t.Fatal(err)
		}
		out[c.name] = s
	}
	return out
}

// TestCaseShared checks that Case builds each case once: concurrent calls
// return one pointer, and that system deep-equals a fresh build.
func TestCaseShared(t *testing.T) {
	for name, fresh := range freshCases(t) {
		got := make([]*System, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = Case(name)
			}()
		}
		wg.Wait()
		for _, s := range got[1:] {
			if s != got[0] {
				t.Fatalf("%s: Case returned distinct systems %p and %p", name, got[0], s)
			}
		}
		if !reflect.DeepEqual(got[0], fresh) {
			t.Fatalf("%s: shared system differs from a fresh build", name)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	tests := []struct {
		name  string
		buses int
		lines []Line
	}{
		{"no buses", 1, []Line{{1, 1, 1, 1}}},
		{"no lines", 3, nil},
		{"bad id", 3, []Line{{5, 1, 2, 1}}},
		{"out of range", 3, []Line{{1, 1, 9, 1}}},
		{"self loop", 3, []Line{{1, 2, 2, 1}}},
		{"bad admittance", 3, []Line{{1, 1, 2, 0}}},
		{"parallel", 3, []Line{{1, 1, 2, 1}, {2, 2, 1, 2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSystem("bad", tc.buses, tc.lines); err == nil {
				t.Fatalf("invalid system accepted")
			}
		})
	}
}

func TestMeasurementNumbering(t *testing.T) {
	s := IEEE14()
	// Per the paper's Fig. 1 numbering: measurement 12 is the forward flow
	// of line 12 (6→12), 32 its backward flow, 46 bus 6's consumption, 53
	// bus 13's consumption.
	if s.ForwardFlowMeas(12) != 12 || s.BackwardFlowMeas(12) != 32 {
		t.Fatalf("line 12 measurements = %d/%d, want 12/32",
			s.ForwardFlowMeas(12), s.BackwardFlowMeas(12))
	}
	if s.InjectionMeas(6) != 46 || s.InjectionMeas(13) != 53 {
		t.Fatalf("injection measurements wrong")
	}
	kind, ref, err := s.DecodeMeas(32)
	if err != nil || kind != MeasBackwardFlow || ref != 12 {
		t.Fatalf("DecodeMeas(32) = %v,%v,%v", kind, ref, err)
	}
	kind, ref, err = s.DecodeMeas(46)
	if err != nil || kind != MeasInjection || ref != 6 {
		t.Fatalf("DecodeMeas(46) = %v,%v,%v", kind, ref, err)
	}
	if _, _, err := s.DecodeMeas(55); err == nil {
		t.Fatalf("out-of-range measurement decoded")
	}
	if _, _, err := s.DecodeMeas(0); err == nil {
		t.Fatalf("measurement 0 decoded")
	}
}

func TestHomeBus(t *testing.T) {
	s := IEEE14()
	// Forward flow of line 12 (6→12) is metered at bus 6; backward at 12.
	if hb, err := s.HomeBus(12); err != nil || hb != 6 {
		t.Fatalf("HomeBus(12) = %d,%v; want 6", hb, err)
	}
	if hb, err := s.HomeBus(32); err != nil || hb != 12 {
		t.Fatalf("HomeBus(32) = %d,%v; want 12", hb, err)
	}
	if hb, err := s.HomeBus(46); err != nil || hb != 6 {
		t.Fatalf("HomeBus(46) = %d,%v; want 6", hb, err)
	}
	if _, err := s.HomeBus(99); err == nil {
		t.Fatalf("out-of-range home bus accepted")
	}
}

func TestMeasAtBus(t *testing.T) {
	s := IEEE14()
	// Bus 6: out-lines 11,12,13; in-line 10; injection 46.
	got := map[int]bool{}
	for _, id := range s.MeasAtBus(6) {
		got[id] = true
	}
	for _, want := range []int{11, 12, 13, 30, 46} {
		if !got[want] {
			t.Fatalf("MeasAtBus(6) = %v missing %d", s.MeasAtBus(6), want)
		}
	}
	if len(got) != 5 {
		t.Fatalf("MeasAtBus(6) has %d entries, want 5", len(got))
	}
}

func TestIncidence(t *testing.T) {
	s := IEEE14()
	in := s.InLines(5)
	out := s.OutLines(5)
	// Bus 5: lines 2 (1→5), 5 (2→5), 7 (4→5) incoming; line 10 (5→6) outgoing.
	if len(in) != 3 || len(out) != 1 {
		t.Fatalf("bus 5 incidence %v / %v, want 3 in / 1 out", in, out)
	}
	if out[0] != 10 {
		t.Fatalf("OutLines(5) = %v, want [10]", out)
	}
	nb := s.Neighbors(5)
	if len(nb) != 4 {
		t.Fatalf("Neighbors(5) = %v, want 4 entries", nb)
	}
}

func TestConnectedWithMapping(t *testing.T) {
	s := IEEE14()
	mapped := make([]bool, s.NumLines()+1)
	for i := 1; i <= s.NumLines(); i++ {
		mapped[i] = true
	}
	// Removing line 17 (9→14) keeps connectivity via 20 (13→14); removing
	// both isolates bus 14.
	mapped[17] = false
	if !s.Connected(mapped) {
		t.Fatalf("removing line 17 should keep grid connected")
	}
	mapped[20] = false
	if s.Connected(mapped) {
		t.Fatalf("removing lines 17 and 20 must disconnect bus 14")
	}
}

func TestMeasurementConfig(t *testing.T) {
	s := IEEE14()
	c := NewMeasurementConfig(s)
	if c.NumTaken() != 54 {
		t.Fatalf("NumTaken = %d, want 54", c.NumTaken())
	}
	if err := c.Untake(5, 10, 14); err != nil {
		t.Fatalf("Untake: %v", err)
	}
	if c.NumTaken() != 51 || c.Taken[5] || !c.Taken[6] {
		t.Fatalf("Untake wrong")
	}
	if err := c.Secure(1, 2); err != nil {
		t.Fatalf("Secure: %v", err)
	}
	if !c.Secured[1] || c.Secured[3] {
		t.Fatalf("Secure wrong")
	}
	if err := c.Restrict(7); err != nil || c.Accessible[7] {
		t.Fatalf("Restrict wrong")
	}
	if err := c.Untake(99); err == nil {
		t.Fatalf("out-of-range Untake accepted")
	}
	clone := c.Clone()
	clone.Taken[6] = false
	if !c.Taken[6] {
		t.Fatalf("Clone shares storage")
	}
}

func TestSecureBus(t *testing.T) {
	s := IEEE14()
	c := NewMeasurementConfig(s)
	if err := c.SecureBus(6); err != nil {
		t.Fatalf("SecureBus: %v", err)
	}
	for _, id := range []int{11, 12, 13, 30, 46} {
		if !c.Secured[id] {
			t.Fatalf("measurement %d not secured by SecureBus(6)", id)
		}
	}
	if c.Secured[1] {
		t.Fatalf("unrelated measurement secured")
	}
	if err := c.SecureBus(99); err == nil {
		t.Fatalf("out-of-range bus accepted")
	}
}

func TestKeepFraction(t *testing.T) {
	s := IEEE30()
	c := NewMeasurementConfig(s)
	if err := c.KeepFraction(0.7); err != nil {
		t.Fatalf("KeepFraction: %v", err)
	}
	m := s.NumMeasurements()
	got := c.NumTaken()
	want := int(0.7 * float64(m))
	if got < want-2 || got > want+2 {
		t.Fatalf("NumTaken = %d, want ≈ %d", got, want)
	}
	// All forward flows stay taken (observability).
	for i := 1; i <= s.NumLines(); i++ {
		if !c.Taken[i] {
			t.Fatalf("forward flow %d dropped by KeepFraction", i)
		}
	}
	if err := c.KeepFraction(0); err == nil {
		t.Fatalf("fraction 0 accepted")
	}
	if err := c.KeepFraction(1.5); err == nil {
		t.Fatalf("fraction > 1 accepted")
	}
}
