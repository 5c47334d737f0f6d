package core

import (
	"context"
	"fmt"
	"math/big"

	"segrid/internal/grid"
	"segrid/internal/lpbuild"
	"segrid/internal/smt"
)

// Model is the UFDI attack verification model built over the SMT solver.
// Its Push/Pop scopes let the countermeasure synthesis loop (Section IV,
// Algorithm 1) and the service layer overlays (see Overlay) on top of a
// fixed attack model. The solver is incremental: the attack constraint
// system (Eqs. 5–26) is lowered into one persistent SAT+simplex instance at
// the first Check, and later Checks — including the per-candidate
// push/assert/pop cycles of the synthesis loop — reuse that instance and the
// clauses it has learnt, re-encoding nothing.
type Model struct {
	sc     *Scenario
	solver *smt.Solver
	// overlays lists what Assert added in the live scopes (see
	// CheckContext); marks holds len(overlays) at each Push.
	overlays []Overlay
	marks    []int

	// 1-based variable tables; zero values mean "not created".
	dtheta []smt.RealVar // per bus; reference bus has none
	hasDT  []bool
	cx     []smt.BoolVar // per bus; reference bus has none
	hasCX  []bool
	cz     []smt.BoolVar // per measurement; only taken ones exist
	hasCZ  []bool
	cb     []smt.BoolVar // per bus
	el     []smt.BoolVar // per line; only admissible exclusions exist
	hasEL  []bool
	il     []smt.BoolVar // per line; only admissible inclusions exist
	hasIL  []bool
	dpt    []smt.RealVar // per line; topology-induced flow delta ΔPT_i
	hasDPT []bool

	flowExpr []*smt.LinExpr // per line: total flow measurement delta ΔPL_i
	busExpr  []*smt.LinExpr // per bus: consumption measurement delta ΔPB_j
}

// NewModel validates the scenario and constructs the constraint system
// (Eqs. 5–26).
func NewModel(sc *Scenario) (*Model, error) {
	return NewModelContext(context.Background(), sc)
}

// NewModelContext is NewModel with cancellation: construction checks ctx
// between build stages and abandons the encoding with ctx.Err() once the
// context is done. Encoding a large case is the most expensive
// non-solve step on the service path (pool misses pay it), so a build queued
// behind a cancelled or deadline-expired request must stop instead of
// completing dead work.
func NewModelContext(ctx context.Context, sc *Scenario) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts := smt.DefaultOptions()
	if sc.Options != nil {
		opts = *sc.Options
	}
	sys := sc.System()
	l, b := sys.NumLines(), sys.Buses
	m := &Model{
		sc:       sc,
		solver:   smt.NewSolver(opts),
		dtheta:   make([]smt.RealVar, b+1),
		hasDT:    make([]bool, b+1),
		cx:       make([]smt.BoolVar, b+1),
		hasCX:    make([]bool, b+1),
		cz:       make([]smt.BoolVar, sys.NumMeasurements()+1),
		hasCZ:    make([]bool, sys.NumMeasurements()+1),
		cb:       make([]smt.BoolVar, b+1),
		el:       make([]smt.BoolVar, l+1),
		hasEL:    make([]bool, l+1),
		il:       make([]smt.BoolVar, l+1),
		hasIL:    make([]bool, l+1),
		dpt:      make([]smt.RealVar, l+1),
		hasDPT:   make([]bool, l+1),
		flowExpr: make([]*smt.LinExpr, l+1),
		busExpr:  make([]*smt.LinExpr, b+1),
	}
	stages := []func(){
		m.buildStateVars,
		m.buildLines,
		m.buildBusExprs,
		m.buildMeasurementConstraints,
		m.buildKnowledgeConstraints,
		m.buildBusCompromise,
		m.buildResourceLimits,
		m.buildGoal,
	}
	for _, stage := range stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stage()
	}
	return m, nil
}

// Solver exposes the underlying SMT solver. Assert refuses to run inside a
// scope opened on it directly, and primitives asserted there are not replayed.
func (m *Model) Solver() *smt.Solver { return m.solver }

// Scenario returns the scenario m encodes, not a copy: every feasible check
// replays against it, so callers treat it as read-only.
func (m *Model) Scenario() *Scenario { return m.sc }

// thetaExpr returns a fresh expression coeff·Δθ_bus, empty for the
// reference bus (whose angle change is identically 0).
func (m *Model) addTheta(e *smt.LinExpr, coeff *big.Rat, bus int) {
	if !m.hasDT[bus] {
		return
	}
	e.Term(coeff, m.dtheta[bus])
}

// buildStateVars creates Δθ and cx per non-reference bus and asserts Eq. 5:
// cx_j ↔ Δθ_j ≠ 0 — or, with the MinChange extension, cx_j ↔ |Δθ_j| ≥ ε
// (a state counts as attacked only when its deviation is significant;
// sub-threshold drift is tolerated on non-target states).
func (m *Model) buildStateVars() {
	sys := m.sc.System()
	eps := minChangeEps(m.sc.MinChange)
	for j := 1; j <= sys.Buses; j++ {
		if j == m.sc.RefBus {
			continue
		}
		m.dtheta[j] = m.solver.RealVar(fmt.Sprintf("dtheta_%d", j))
		m.hasDT[j] = true
		m.cx[j] = m.solver.BoolVar(fmt.Sprintf("cx_%d", j))
		m.hasCX[j] = true
		theta := smt.NewLinExpr().TermInt(1, m.dtheta[j])
		if eps != nil {
			significant := smt.Or(
				smt.LE(theta, new(big.Rat).Neg(eps)),
				smt.GE(theta, eps),
			)
			m.solver.Assert(smt.Iff(smt.B(m.cx[j]), significant))
		} else {
			m.solver.Assert(smt.Iff(smt.B(m.cx[j]), smt.NeqZero(theta)))
		}
	}
}

// buildLines creates per-line topology attack variables and the total flow
// delta expressions (Eqs. 6–13).
func (m *Model) buildLines() {
	sys := m.sc.System()
	for _, ln := range sys.Lines {
		i := ln.ID
		y := lpbuild.AdmittanceRat(ln.Admittance)
		excl := m.sc.canExclude(i)
		incl := m.sc.canInclude(i)

		// Static state-induced delta expression ld·(Δθ_from − Δθ_to).
		stateDelta := smt.NewLinExpr()
		m.addTheta(stateDelta, y, ln.From)
		m.addTheta(stateDelta, new(big.Rat).Neg(y), ln.To)

		if !excl && !incl {
			if m.sc.inService(i) {
				// Always mapped: ΔPL_i is the pure state-induced change.
				m.flowExpr[i] = stateDelta
			} else {
				// Not in service and not includable: no flow, no change.
				m.flowExpr[i] = smt.NewLinExpr()
			}
			continue
		}

		// Topology-attackable line: ΔPL_i = ΔPS_i + ΔPT_i with auxiliary
		// real variables (Eq. 13).
		dps := m.solver.RealVar(fmt.Sprintf("dps_%d", i))
		dpt := m.solver.RealVar(fmt.Sprintf("dpt_%d", i))
		m.dpt[i] = dpt
		m.hasDPT[i] = true
		m.flowExpr[i] = smt.NewLinExpr().TermInt(1, dps).TermInt(1, dpt)

		// attacked := el_i (exclusion) or il_i (inclusion); the two cases
		// are mutually exclusive for a given line because exclusion
		// requires tl_i and inclusion ¬tl_i (Eqs. 9, 10).
		var attacked smt.Formula
		if excl {
			m.el[i] = m.solver.BoolVar(fmt.Sprintf("el_%d", i))
			m.hasEL[i] = true
			attacked = smt.B(m.el[i])
		} else {
			m.il[i] = m.solver.BoolVar(fmt.Sprintf("il_%d", i))
			m.hasIL[i] = true
			attacked = smt.B(m.il[i])
		}

		// Eqs. 11, 12: topology-induced delta is nonzero exactly under an
		// exclusion/inclusion attack (its magnitude is base-case dependent
		// and therefore free).
		dptExpr := smt.NewLinExpr().TermInt(1, dpt)
		m.solver.Assert(smt.Iff(attacked, smt.NeqZero(dptExpr)))

		// Mapped-topology state coupling (Eqs. 6, 7):
		//   mapped  → ΔPS_i = ld(Δθ_from − Δθ_to)
		//   ¬mapped → ΔPS_i = 0
		// For an in-service line mapped ≡ ¬el_i; for an out-of-service
		// line mapped ≡ il_i (Eq. 8 with constant tl_i folded in).
		coupled := stateDelta.Clone().TermInt(-1, dps) // ld(Δθf−Δθt) − ΔPS = 0
		zeroed := smt.NewLinExpr().TermInt(1, dps)
		var mapped smt.Formula
		if excl {
			mapped = smt.Not(smt.B(m.el[i]))
		} else {
			mapped = smt.B(m.il[i])
		}
		m.solver.Assert(smt.Implies(mapped, smt.EqZero(coupled)))
		m.solver.Assert(smt.Implies(smt.Not(mapped), smt.EqZero(zeroed)))
	}
}

// buildBusExprs assembles ΔPB_j = Σ incoming ΔPL − Σ outgoing ΔPL (Eq. 14).
func (m *Model) buildBusExprs() {
	sys := m.sc.System()
	one := big.NewRat(1, 1)
	minusOne := big.NewRat(-1, 1)
	for j := 1; j <= sys.Buses; j++ {
		e := smt.NewLinExpr()
		for _, id := range sys.InLines(j) {
			e.AddExpr(one, m.flowExpr[id])
		}
		for _, id := range sys.OutLines(j) {
			e.AddExpr(minusOne, m.flowExpr[id])
		}
		m.busExpr[j] = e
	}
}

// measurementDelta returns the delta expression of a measurement ID. The
// backward flow's delta is the negation of the forward one; only its
// (non-)zeroness matters, so the forward expression is reused.
func (m *Model) measurementDelta(id int) (*smt.LinExpr, error) {
	sys := m.sc.System()
	kind, ref, err := sys.DecodeMeas(id)
	if err != nil {
		return nil, err
	}
	switch kind {
	case grid.MeasForwardFlow, grid.MeasBackwardFlow:
		return m.flowExpr[ref], nil
	default:
		return m.busExpr[ref], nil
	}
}

// buildMeasurementConstraints creates cz per taken measurement and asserts
// Eqs. 15, 16 and 19.
func (m *Model) buildMeasurementConstraints() {
	sys := m.sc.System()
	meas := m.sc.Meas
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if !meas.Taken[id] {
			continue // cz_id is identically false; Eq. 16 needs mz.
		}
		v := m.solver.BoolVar(fmt.Sprintf("cz_%d", id))
		m.cz[id] = v
		m.hasCZ[id] = true
		delta, err := m.measurementDelta(id)
		if err != nil {
			// DecodeMeas cannot fail for 1..m by construction.
			panic("core: internal measurement decode error: " + err.Error())
		}
		// Eqs. 15+16: a taken measurement is altered iff its value must
		// change.
		m.solver.Assert(smt.Iff(smt.B(v), smt.NeqZero(delta)))
		// Eq. 19: alteration needs access and no integrity protection.
		if !meas.Accessible[id] || meas.Secured[id] {
			m.solver.Assert(smt.Not(smt.B(v)))
		}
	}
}

// buildKnowledgeConstraints asserts Eq. 17 (and the strict extension).
func (m *Model) buildKnowledgeConstraints() {
	sys := m.sc.System()
	for _, ln := range sys.Lines {
		if m.sc.knows(ln.ID) {
			continue
		}
		// Eq. 17: without the admittance, the attacker cannot compute the
		// required flow changes.
		m.solver.Assert(smt.Not(m.czFormula(sys.ForwardFlowMeas(ln.ID))))
		m.solver.Assert(smt.Not(m.czFormula(sys.BackwardFlowMeas(ln.ID))))
		if m.sc.StrictKnowledge {
			// Extension: adjustments to adjacent bus consumptions are
			// equally incomputable, so the relative state change across
			// the line must vanish and its status cannot be poisoned.
			diff := smt.NewLinExpr()
			m.addTheta(diff, big.NewRat(1, 1), ln.From)
			m.addTheta(diff, big.NewRat(-1, 1), ln.To)
			m.solver.Assert(smt.EqZero(diff))
			if m.hasEL[ln.ID] {
				m.solver.Assert(smt.Not(smt.B(m.el[ln.ID])))
			}
			if m.hasIL[ln.ID] {
				m.solver.Assert(smt.Not(smt.B(m.il[ln.ID])))
			}
		}
	}
}

// czFormula returns cz_id as a formula; untaken measurements are constant
// false.
func (m *Model) czFormula(id int) smt.Formula {
	if !m.hasCZ[id] {
		return smt.False()
	}
	return smt.B(m.cz[id])
}

// buildBusCompromise creates cb per bus with cb_j ↔ ∨ cz homed at j
// (Eq. 23 plus the converse, which keeps reported bus sets tight).
func (m *Model) buildBusCompromise() {
	sys := m.sc.System()
	for j := 1; j <= sys.Buses; j++ {
		m.cb[j] = m.solver.BoolVar(fmt.Sprintf("cb_%d", j))
		any := make([]smt.Formula, 0, 4)
		for _, id := range sys.MeasAtBus(j) {
			if m.hasCZ[id] {
				any = append(any, smt.B(m.cz[id]))
			}
		}
		m.solver.Assert(smt.Iff(smt.B(m.cb[j]), smt.Or(any...)))
	}
}

// buildResourceLimits asserts Eqs. 22 and 24.
func (m *Model) buildResourceLimits() {
	sys := m.sc.System()
	if k := m.sc.MaxAlteredMeasurements; k > 0 {
		fs := make([]smt.Formula, 0, sys.NumMeasurements())
		for id := 1; id <= sys.NumMeasurements(); id++ {
			if m.hasCZ[id] {
				fs = append(fs, smt.B(m.cz[id]))
			}
		}
		m.solver.AssertAtMostK(fs, k)
	}
	if k := m.sc.MaxCompromisedBuses; k > 0 {
		fs := make([]smt.Formula, 0, sys.Buses)
		for j := 1; j <= sys.Buses; j++ {
			fs = append(fs, smt.B(m.cb[j]))
		}
		m.solver.AssertAtMostK(fs, k)
	}
}

// buildGoal asserts the attack objective (Eqs. 25, 26).
func (m *Model) buildGoal() {
	sys := m.sc.System()
	inTargets := make(map[int]bool, len(m.sc.TargetStates))
	for _, t := range m.sc.TargetStates {
		inTargets[t] = true
		m.solver.Assert(smt.B(m.cx[t]))
	}
	if m.sc.OnlyTargets {
		for j := 1; j <= sys.Buses; j++ {
			if m.hasCX[j] && !inTargets[j] {
				m.solver.Assert(smt.Not(smt.B(m.cx[j])))
			}
		}
	}
	for _, j := range m.sc.UntouchedStates {
		if m.hasCX[j] {
			m.solver.Assert(smt.Not(smt.B(m.cx[j])))
		}
	}
	if m.sc.AnyState {
		fs := make([]smt.Formula, 0, sys.Buses)
		for j := 1; j <= sys.Buses; j++ {
			if m.hasCX[j] {
				fs = append(fs, smt.B(m.cx[j]))
			}
		}
		m.solver.Assert(smt.Or(fs...))
	}
	for _, p := range m.sc.DistinctPairs {
		diff := smt.NewLinExpr()
		m.addTheta(diff, big.NewRat(1, 1), p[0])
		m.addTheta(diff, big.NewRat(-1, 1), p[1])
		m.solver.Assert(smt.NeqZero(diff))
	}
}

// AssertMaxAlteredMeasurements adds, in the solver's current scope, the
// Eq. 22 cardinality bound Σ cz_i ≤ k beside the scenario's own, which it
// can only tighten (see Overlay). k must be positive.
func (m *Model) AssertMaxAlteredMeasurements(k int) error {
	if k <= 0 {
		return fmt.Errorf("core: scoped measurement bound must be positive, got %d", k)
	}
	sys := m.sc.System()
	fs := make([]smt.Formula, 0, sys.NumMeasurements())
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if m.hasCZ[id] {
			fs = append(fs, smt.B(m.cz[id]))
		}
	}
	m.solver.AssertAtMostK(fs, k)
	return nil
}

// assertMaxCompromisedBuses is AssertMaxAlteredMeasurements for the Eq. 24
// bound Σ cb_j ≤ k, k positive.
func (m *Model) assertMaxCompromisedBuses(k int) {
	sys := m.sc.System()
	fs := make([]smt.Formula, 0, sys.Buses)
	for j := 1; j <= sys.Buses; j++ {
		fs = append(fs, smt.B(m.cb[j]))
	}
	m.solver.AssertAtMostK(fs, k)
}

// AssertMeasurementsSecured adds, in the solver's current scope, the
// constraint that the given individual measurements are integrity
// protected: their cz variables are forced false.
func (m *Model) AssertMeasurementsSecured(ids []int) error {
	sys := m.sc.System()
	for _, id := range ids {
		if id < 1 || id > sys.NumMeasurements() {
			return fmt.Errorf("core: measurement %d out of range 1..%d", id, sys.NumMeasurements())
		}
		if m.hasCZ[id] {
			m.solver.Assert(smt.Not(smt.B(m.cz[id])))
		}
	}
	return nil
}

// AssertBusesSecured adds, in the solver's current scope, the constraints
// that every taken measurement homed at the given buses is integrity
// protected (Eq. 28 applied to the attack model): their cz variables are
// forced false.
func (m *Model) AssertBusesSecured(buses []int) error {
	sys := m.sc.System()
	for _, j := range buses {
		if j < 1 || j > sys.Buses {
			return fmt.Errorf("core: bus %d out of range 1..%d", j, sys.Buses)
		}
		for _, id := range sys.MeasAtBus(j) {
			if m.hasCZ[id] {
				m.solver.Assert(smt.Not(smt.B(m.cz[id])))
			}
		}
	}
	return nil
}
