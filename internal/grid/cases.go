package grid

import (
	"fmt"
	"math"
	"sync"

	"segrid/internal/numeric"
)

// QuantizeAdmittance rounds an admittance to four decimals. All embedded
// and generated cases use quantized admittances so that the formal model's
// exact-rational view of a line (internal/core) and the floating-point
// estimator's view (internal/se) coincide; the paper's Table II data has at
// most two decimals anyway.
func QuantizeAdmittance(y float64) float64 {
	return math.Round(y*1e4) / 1e4
}

// ExactAdmittance is QuantizeAdmittance's rounding as an exact rational:
// y to four decimals, in lowest terms. It is the one admittance the formal
// model reads. NewSystem stores it per line for the exact evaluator
// (System.ExactAdmittance), and internal/lpbuild.AdmittanceRat hands the
// same value to the SMT encoding and the LP relaxation.
func ExactAdmittance(y float64) numeric.Q {
	return numeric.QFromFrac(int64(math.Round(y*1e4)), 10_000)
}

// IEEE14 returns the IEEE 14-bus test system with the exact line admittances
// printed in the paper's Table II (which are the reciprocals of the standard
// case's branch reactances).
func IEEE14() *System {
	lines := []Line{
		{1, 1, 2, 16.90},
		{2, 1, 5, 4.48},
		{3, 2, 3, 5.05},
		{4, 2, 4, 5.67},
		{5, 2, 5, 5.75},
		{6, 3, 4, 5.85},
		{7, 4, 5, 23.75},
		{8, 4, 7, 4.78},
		{9, 4, 9, 1.80},
		{10, 5, 6, 3.97},
		{11, 6, 11, 5.03},
		{12, 6, 12, 3.91},
		{13, 6, 13, 7.68},
		{14, 7, 8, 5.68},
		{15, 7, 9, 9.09},
		{16, 9, 10, 11.83},
		{17, 9, 14, 3.70},
		{18, 10, 11, 5.21},
		{19, 12, 13, 5.00},
		{20, 13, 14, 2.87},
	}
	s, err := NewSystem("ieee14", 14, lines)
	if err != nil {
		panic("grid: embedded IEEE 14-bus case invalid: " + err.Error())
	}
	return s
}

// ieee30Branches is the standard IEEE 30-bus branch list as (from, to,
// reactance) triples; admittances are the reciprocals.
var ieee30Branches = [][3]float64{
	{1, 2, 0.0575}, {1, 3, 0.1652}, {2, 4, 0.1737}, {3, 4, 0.0379},
	{2, 5, 0.1983}, {2, 6, 0.1763}, {4, 6, 0.0414}, {5, 7, 0.1160},
	{6, 7, 0.0820}, {6, 8, 0.0420}, {6, 9, 0.2080}, {6, 10, 0.5560},
	{9, 11, 0.2080}, {9, 10, 0.1100}, {4, 12, 0.2560}, {12, 13, 0.1400},
	{12, 14, 0.2559}, {12, 15, 0.1304}, {12, 16, 0.1987}, {14, 15, 0.1997},
	{16, 17, 0.1923}, {15, 18, 0.2185}, {18, 19, 0.1292}, {19, 20, 0.0680},
	{10, 20, 0.2090}, {10, 17, 0.0845}, {10, 21, 0.0749}, {10, 22, 0.1499},
	{21, 22, 0.0236}, {15, 23, 0.2020}, {22, 24, 0.1790}, {23, 24, 0.2700},
	{24, 25, 0.3292}, {25, 26, 0.3800}, {25, 27, 0.2087}, {28, 27, 0.3960},
	{27, 29, 0.4153}, {27, 30, 0.6027}, {29, 30, 0.4533}, {8, 28, 0.2000},
	{6, 28, 0.0599},
}

// IEEE30 returns the IEEE 30-bus test system (41 branches, standard
// reactances).
func IEEE30() *System {
	lines := make([]Line, len(ieee30Branches))
	for i, b := range ieee30Branches {
		lines[i] = Line{
			ID:         i + 1,
			From:       int(b[0]),
			To:         int(b[1]),
			Admittance: QuantizeAdmittance(1 / b[2]),
		}
	}
	s, err := NewSystem("ieee30", 30, lines)
	if err != nil {
		panic("grid: embedded IEEE 30-bus case invalid: " + err.Error())
	}
	return s
}

// Synthetic builds a deterministic IEEE-like test system with the given bus
// and line counts: a connected ring backbone plus pseudo-random chords,
// reactances in the realistic 0.03–0.35 p.u. range. The paper evaluates on
// the standard IEEE 57/118/300-bus cases; their full branch tables are
// external data, so the scalability experiments here run on these
// structural stand-ins, which preserve the property the paper's argument
// rests on (connected grid, average nodal degree ≈ 3). See DESIGN.md.
func Synthetic(name string, buses, lines int, seed uint64) (*System, error) {
	if lines < buses {
		return nil, fmt.Errorf("grid: synthetic case needs lines ≥ buses (ring backbone), got %d < %d", lines, buses)
	}
	maxLines := buses * (buses - 1) / 2
	if lines > maxLines {
		return nil, fmt.Errorf("grid: %d lines exceed simple-graph maximum %d for %d buses", lines, maxLines, buses)
	}
	rng := seed
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	reactance := func() float64 {
		return 0.03 + float64(next()%3200)/10000 // 0.03 .. 0.3499
	}
	used := make(map[[2]int]bool, lines)
	ls := make([]Line, 0, lines)
	add := func(a, b int) {
		key := [2]int{min(a, b), max(a, b)}
		used[key] = true
		ls = append(ls, Line{ID: len(ls) + 1, From: a, To: b, Admittance: QuantizeAdmittance(1 / reactance())})
	}
	for i := 1; i <= buses; i++ {
		j := i + 1
		if j > buses {
			j = 1
		}
		add(i, j)
	}
	for len(ls) < lines {
		a := int(next()%uint64(buses)) + 1
		b := int(next()%uint64(buses)) + 1
		if a == b {
			continue
		}
		if used[[2]int{min(a, b), max(a, b)}] {
			continue
		}
		add(a, b)
	}
	return NewSystem(name, buses, ls)
}

// builtin builds each registered case once, on first use.
var builtin = map[string]func() *System{
	"ieee14":  sync.OnceValue(IEEE14),
	"ieee30":  sync.OnceValue(IEEE30),
	"ieee57":  syntheticCase("ieee57", 57, 80, 57),
	"ieee118": syntheticCase("ieee118", 118, 186, 118),
	"ieee300": syntheticCase("ieee300", 300, 411, 300),
}

func syntheticCase(name string, buses, lines int, seed uint64) func() *System {
	return sync.OnceValue(func() *System {
		s, err := Synthetic(name, buses, lines, seed)
		if err != nil {
			panic("grid: built-in case " + name + " invalid: " + err.Error())
		}
		return s
	})
}

// Case returns a registered test system by name: ieee14, ieee30, ieee57,
// ieee118, ieee300. The latter three are deterministic synthetic stand-ins
// with the standard cases' exact bus and line counts (see Synthetic).
//
// Each case is built once per process and every call returns that one
// System, shared by all callers and goroutines: it must not be mutated.
// Callers that need to edit a network build their own with NewSystem,
// IEEE14, IEEE30 or Synthetic.
func Case(name string) (*System, error) {
	build, ok := builtin[name]
	if !ok {
		return nil, fmt.Errorf("grid: unknown test case %q", name)
	}
	return build(), nil
}
