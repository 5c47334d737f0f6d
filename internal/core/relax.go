package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"segrid/internal/grid"
	"segrid/internal/lpbuild"
	"segrid/internal/lra"
	"segrid/internal/numeric"
	"segrid/internal/screen"
)

// The LP relaxation is the scenario's second lowering, decided by the
// screening tier (ScreenScenario) on the exact rational simplex. It keeps
// only constraints that are implied for every concrete attack after
// normalization: the DC measurement-consistency structure (flow and
// injection deltas as linear functions of the state deltas, with
// status-attackable lines' flows decoupled as free variables), hard
// zero-forcing of deltas the attacker cannot touch, and the cardinality
// budgets relaxed to continuous sums: each alteration indicator cz becomes
// a [0,1] variable dominating its measurement's |delta|, each
// bus-compromise indicator cb a [0,1] variable dominating its
// measurements' cz. This is sound because the constraint system minus the
// goal is a cone — any attack scales down until every measurement delta
// has magnitude ≤ 1, at which point |delta| itself is a valid fractional
// indicator — so the relaxed polytope contains a scaled image of every
// true attack.
//
// It is hand-derived, not a row-by-row copy of the SMT encoding: one free
// dpl_i stands for ΔPS+ΔPT on a poisonable line, an implied-topology cut
// replaces the el/il indicators, and goal-side zero-forcing applies only
// without MinChange.
//
// Goals (Δθ ≠ 0 disequalities) are handled by strict sign probes: the
// relaxation is checked against goal > 0 and goal < 0 separately. Both
// infeasible means the relaxation forces the goal expression to zero, so
// the full model is UNSAT — a definitive fast-reject carrying rational
// Farkas certificates. If every goal has a feasible sign, a combined
// solution is extracted, sparsified and lifted to a concrete attack that
// the exact evaluator must accept (replay.go).

// lpRelaxation owns one screening run: the simplex holding the
// relaxation, the certificate bookkeeping that lets any conflict be
// exported as a self-contained Farkas proof, and the variable tables the
// witness replay reads back.
type lpRelaxation struct {
	sc  *Scenario
	sys *grid.System
	eps *big.Rat // minChangeEps(sc.MinChange)
	s   *lra.Simplex

	// bounds records every asserted bound, indexed by its lra.Tag, as an
	// oriented certificate row over primitive variables. Every bound the
	// screen asserts is tagged — an untagged (NoTag) participant would
	// make the solver's Farkas coefficients unreconstructible.
	bounds []screen.Bound
	// expand maps each solver variable to its expansion over primitive
	// variables (angles, free line flows, cz, cb), so certificate rows
	// never mention solver-internal slack rows.
	expand map[int]map[int]*big.Rat
	names  map[int]string

	theta []int // 1-based bus → Δθ variable
	fvar  []int // 1-based line → free ΔPL variable (status-attackable lines only)

	lineVar []int // memo: 1-based line → flow-delta variable (−1 unset, −2 identically zero)
	busVar  []int // memo: 1-based bus → injection-delta variable (−1 unset, −2 identically zero)

	czIDs []int       // measurement IDs with alteration-indicator variables
	czVar map[int]int // measurement ID → cz variable
	cbVar map[int]int // bus → cb variable

	maxPivots int64
	probes    int
	buildErr  string
}

// sparsifyPivotCap bounds the extra pivots the accept path spends trying
// to sparsify a witness that over-spent a relaxed budget; past it the
// instance is handed to the SMT tier instead.
const sparsifyPivotCap = 256

// newLPRelaxation lowers a validated scenario to its LP relaxation.
// Internal construction errors are deferred into buildErr and surface as
// an Inconclusive verdict.
func newLPRelaxation(ctx context.Context, sc *Scenario, opts screen.Options) *lpRelaxation {
	sys := sc.System()
	lp := &lpRelaxation{
		sc:      sc,
		sys:     sys,
		eps:     minChangeEps(sc.MinChange),
		s:       lra.NewSimplex(),
		expand:  make(map[int]map[int]*big.Rat),
		names:   make(map[int]string),
		theta:   make([]int, sys.Buses+1),
		fvar:    make([]int, sys.NumLines()+1),
		lineVar: make([]int, sys.NumLines()+1),
		busVar:  make([]int, sys.Buses+1),
		czVar:   make(map[int]int),
		cbVar:   make(map[int]int),
	}
	if opts.MaxPivots > 0 {
		lp.maxPivots = opts.MaxPivots
		lp.s.SetMaxPivots(opts.MaxPivots)
	}
	stop := opts.Stop
	lp.s.SetStop(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stop != nil {
			return stop()
		}
		return nil
	})
	lp.construct()
	return lp
}

func (lp *lpRelaxation) fail(why string) {
	if lp.buildErr == "" {
		lp.buildErr = why
	}
}

// newVar introduces a named primitive variable.
func (lp *lpRelaxation) newVar(name string) int {
	v := lp.s.NewVar()
	lp.names[v] = name
	lp.expand[v] = map[int]*big.Rat{v: big.NewRat(1, 1)}
	return v
}

// slack introduces a defined row and records its expansion over primitive
// variables for certificate export.
func (lp *lpRelaxation) slack(terms []lra.Term) (int, bool) {
	v, err := lp.s.DefineSlack(terms)
	if err != nil {
		lp.fail("screen: internal slack definition failed: " + err.Error())
		return 0, false
	}
	exp := make(map[int]*big.Rat)
	for _, t := range terms {
		for pv, c := range lp.expand[t.Var] {
			acc, ok := exp[pv]
			if !ok {
				acc = new(big.Rat)
				exp[pv] = acc
			}
			acc.Add(acc, new(big.Rat).Mul(t.Coeff, c))
		}
	}
	lp.expand[v] = exp
	return v, true
}

// certTerms renders a variable's primitive expansion as certificate terms
// in deterministic (ascending variable) order.
func (lp *lpRelaxation) certTerms(v int) []screen.Term {
	exp := lp.expand[v]
	vars := make([]int, 0, len(exp))
	for pv := range exp {
		if exp[pv].Sign() != 0 {
			vars = append(vars, pv)
		}
	}
	sort.Ints(vars)
	out := make([]screen.Term, len(vars))
	for i, pv := range vars {
		out[i] = screen.Term{Var: lp.names[pv], Coeff: new(big.Rat).Set(exp[pv])}
	}
	return out
}

// addBound records an oriented certificate row for a bound and asserts it,
// returning the solver's conflict explanation if the assertion itself
// closes an empty interval.
func (lp *lpRelaxation) addBound(v int, lower bool, d numeric.Delta, desc string) []lra.Tag {
	tag := lra.Tag(len(lp.bounds))
	lp.bounds = append(lp.bounds, screen.Bound{
		Desc:   desc,
		Terms:  lp.certTerms(v),
		Lower:  lower,
		Value:  new(big.Rat).Set(d.Rat()),
		Strict: d.Inf().Sign() != 0,
	})
	if lower {
		return lp.s.AssertLower(v, d, tag)
	}
	return lp.s.AssertUpper(v, d, tag)
}

// fixZero asserts v = 0 with both bounds tagged. Base-relaxation bounds
// all admit the zero point, so a conflict here is an internal error.
func (lp *lpRelaxation) fixZero(v int, desc string) {
	if c := lp.addBound(v, true, numeric.Delta{}, desc); c != nil {
		lp.fail("screen: internal conflict while building relaxation: " + desc)
		return
	}
	if c := lp.addBound(v, false, numeric.Delta{}, desc); c != nil {
		lp.fail("screen: internal conflict while building relaxation: " + desc)
	}
}

// certify exports the solver's most recent conflict explanation as a
// self-contained certificate, or nil if the Farkas coefficients are
// unavailable (which the callers treat as Inconclusive, never as a
// definitive verdict).
func (lp *lpRelaxation) certify(desc string, tags []lra.Tag) *screen.Certificate {
	lams := lp.s.LastFarkas()
	if lams == nil || len(lams) != len(tags) {
		return nil
	}
	c := &screen.Certificate{Desc: desc}
	for i, t := range tags {
		if t < 0 || int(t) >= len(lp.bounds) {
			return nil
		}
		c.Bounds = append(c.Bounds, lp.bounds[t])
		// Copy immediately: the solver reuses its Farkas buffer on the
		// next conflict.
		c.Coeffs = append(c.Coeffs, new(big.Rat).Set(lams[i].Rat()))
	}
	return c
}

const (
	memoUnset = -1
	memoZero  = -2
)

// lineDeltaVar returns a variable carrying line i's measured-flow delta
// ΔPL: the free variable for attackable lines, the state-implied slack
// y·(Δθ_from − Δθ_to) for in-service lines, and nothing for out-of-service
// lines (identically zero).
func (lp *lpRelaxation) lineDeltaVar(i int) (int, bool) {
	if lp.lineVar[i] != memoUnset {
		return lp.lineVar[i], lp.lineVar[i] != memoZero
	}
	switch {
	case lp.sc.statusAttackable(i):
		lp.lineVar[i] = lp.fvar[i]
	case lp.sc.inService(i):
		ln := lp.sys.Line(i)
		v, ok := lp.slack(lpbuild.LineFlowTerms(lp.theta, ln, lpbuild.AdmittanceRat(ln.Admittance)))
		if !ok {
			return 0, false
		}
		lp.lineVar[i] = v
	default:
		lp.lineVar[i] = memoZero
	}
	return lp.lineVar[i], lp.lineVar[i] != memoZero
}

// busDeltaVar returns a variable carrying bus j's injection-measurement
// delta Σ inflow deltas − Σ outflow deltas, or false if it is identically
// zero (isolated or fully out-of-service neighborhood).
func (lp *lpRelaxation) busDeltaVar(j int) (int, bool) {
	if lp.busVar[j] != memoUnset {
		return lp.busVar[j], lp.busVar[j] != memoZero
	}
	var terms []lra.Term
	for _, id := range lp.sys.InLines(j) {
		if v, ok := lp.lineDeltaVar(id); ok {
			terms = append(terms, lra.Term{Var: v, Coeff: big.NewRat(1, 1)})
		}
	}
	for _, id := range lp.sys.OutLines(j) {
		if v, ok := lp.lineDeltaVar(id); ok {
			terms = append(terms, lra.Term{Var: v, Coeff: big.NewRat(-1, 1)})
		}
	}
	if len(terms) == 0 {
		lp.busVar[j] = memoZero
		return 0, false
	}
	v, ok := lp.slack(terms)
	if !ok {
		return 0, false
	}
	lp.busVar[j] = v
	return v, true
}

// measDeltaVar returns a variable carrying measurement id's delta, or
// false if the delta is identically zero in the relaxation.
func (lp *lpRelaxation) measDeltaVar(id int) (int, bool) {
	kind, ref, err := lp.sys.DecodeMeas(id)
	if err != nil {
		lp.fail("screen: " + err.Error())
		return 0, false
	}
	switch kind {
	case grid.MeasForwardFlow, grid.MeasBackwardFlow:
		// The backward flow shares the forward expression up to sign;
		// every constraint the relaxation places on it (zero-forcing,
		// |delta| domination) is symmetric, so the same variable serves.
		return lp.lineDeltaVar(ref)
	default:
		return lp.busDeltaVar(ref)
	}
}

// construct builds the base relaxation: every constraint here is implied
// for (a scaled image of) every concrete attack, so the polytope is a
// relaxation of the full model and its infeasibilities transfer.
func (lp *lpRelaxation) construct() {
	sc, sys := lp.sc, lp.sys

	for i := range lp.lineVar {
		lp.lineVar[i] = memoUnset
	}
	for j := range lp.busVar {
		lp.busVar[j] = memoUnset
	}

	// State-delta variables; the reference angle is pinned.
	for j := 1; j <= sys.Buses; j++ {
		lp.theta[j] = lp.newVar(fmt.Sprintf("dtheta_%d", j))
	}
	lp.fixZero(lp.theta[sc.RefBus], fmt.Sprintf("reference bus %d angle delta pinned to zero", sc.RefBus))

	// Status-attackable lines carry their measured flow delta as a free
	// variable: a status attack decouples the measured flow from the
	// state-implied y·(Δθf − Δθt).
	for i := 1; i <= sys.NumLines(); i++ {
		if sc.statusAttackable(i) {
			lp.fvar[i] = lp.newVar(fmt.Sprintf("dpl_%d", i))
		}
	}

	// Strict knowledge: unknown lines keep their endpoint states equal
	// (the attacker cannot reason about them at all, Eq. 18 tightened).
	if sc.StrictKnowledge {
		for i := 1; i <= sys.NumLines(); i++ {
			if sc.knows(i) {
				continue
			}
			ln := sys.Line(i)
			if ln.From == ln.To {
				continue
			}
			v, ok := lp.slack([]lra.Term{
				{Var: lp.theta[ln.From], Coeff: big.NewRat(1, 1)},
				{Var: lp.theta[ln.To], Coeff: big.NewRat(-1, 1)},
			})
			if !ok {
				return
			}
			lp.fixZero(v, fmt.Sprintf("strict knowledge: unknown line %d state difference zero", i))
		}
	}

	// Taken measurements the attacker cannot alter keep their value: the
	// delta is forced to zero exactly.
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if !sc.Meas.Taken[id] || sc.alterable(id) {
			continue
		}
		if v, ok := lp.measDeltaVar(id); ok {
			lp.fixZero(v, fmt.Sprintf("unalterable measurement %d delta zero", id))
		}
	}

	// Implied topology constraint: an excludable in-service line whose
	// flow measurement is taken but unalterable cannot actually be
	// excluded (exclusion forces a nonzero measured-flow change), so its
	// measured flow — already pinned to zero above — must also equal the
	// state-implied flow: y·(Δθf − Δθt) = 0.
	for i := 1; i <= sys.NumLines(); i++ {
		if !sc.statusAttackable(i) || !sc.canExclude(i) {
			continue
		}
		fwd, bwd := sys.ForwardFlowMeas(i), sys.BackwardFlowMeas(i)
		pinned := (sc.Meas.Taken[fwd] && !sc.alterable(fwd)) || (sc.Meas.Taken[bwd] && !sc.alterable(bwd))
		if !pinned {
			continue
		}
		ln := sys.Line(i)
		v, ok := lp.slack(lpbuild.LineFlowTerms(lp.theta, ln, lpbuild.AdmittanceRat(ln.Admittance)))
		if !ok {
			return
		}
		lp.fixZero(v, fmt.Sprintf("line %d unexcludable with pinned flow measurement: state-implied flow zero", i))
	}

	// Goal-side zero-forcing is only sound without MinChange: under a
	// significance threshold ε, "state not attacked" means |Δθ| < ε, not
	// Δθ = 0, so these fixes would cut off real attacks.
	if lp.eps == nil {
		if sc.OnlyTargets {
			target := make(map[int]bool, len(sc.TargetStates))
			for _, t := range sc.TargetStates {
				target[t] = true
			}
			for j := 1; j <= sys.Buses; j++ {
				if j == sc.RefBus || target[j] {
					continue
				}
				lp.fixZero(lp.theta[j], fmt.Sprintf("only-targets: non-target state %d unchanged", j))
			}
		}
		for _, j := range sc.UntouchedStates {
			if j == sc.RefBus {
				continue
			}
			lp.fixZero(lp.theta[j], fmt.Sprintf("untouched state %d unchanged", j))
		}
	}

	// Cardinality budgets, relaxed to continuous sums. After scaling an
	// attack down to ∥delta∥∞ ≤ 1 (the constraint system minus the goal is
	// a cone, so this stays feasible), cz := |delta| ∈ [0,1] satisfies the
	// couplings and Σ cz ≤ Σ 1{delta≠0} ≤ MaxAltered; likewise cb := max
	// cz per bus. Only built when a budget is active — the variables exist
	// purely to make the sums meaningful.
	if sc.MaxAlteredMeasurements > 0 || sc.MaxCompromisedBuses > 0 {
		lp.buildCardinality()
	}
}

// buildCardinality adds the continuous alteration/compromise indicators
// and their budget rows.
func (lp *lpRelaxation) buildCardinality() {
	sc, sys := lp.sc, lp.sys
	one := numeric.DeltaFromRat(big.NewRat(1, 1))
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if !sc.alterable(id) {
			continue
		}
		dv, ok := lp.measDeltaVar(id)
		if !ok {
			continue // delta identically zero: never altered, no indicator needed
		}
		cz := lp.newVar(fmt.Sprintf("cz_%d", id))
		lp.czIDs = append(lp.czIDs, id)
		lp.czVar[id] = cz
		lp.addBound(cz, true, numeric.Delta{}, fmt.Sprintf("alteration indicator cz_%d ≥ 0", id))
		lp.addBound(cz, false, one, fmt.Sprintf("alteration indicator cz_%d ≤ 1", id))
		// cz dominates |delta|: delta − cz ≤ 0 and delta + cz ≥ 0.
		up, ok := lp.slack([]lra.Term{{Var: dv, Coeff: big.NewRat(1, 1)}, {Var: cz, Coeff: big.NewRat(-1, 1)}})
		if !ok {
			return
		}
		lp.addBound(up, false, numeric.Delta{}, fmt.Sprintf("cz_%d dominates measurement %d delta (upper)", id, id))
		lo, ok := lp.slack([]lra.Term{{Var: dv, Coeff: big.NewRat(1, 1)}, {Var: cz, Coeff: big.NewRat(1, 1)}})
		if !ok {
			return
		}
		lp.addBound(lo, true, numeric.Delta{}, fmt.Sprintf("cz_%d dominates measurement %d delta (lower)", id, id))
	}
	if len(lp.czIDs) == 0 {
		return
	}
	if k := sc.MaxAlteredMeasurements; k > 0 {
		terms := make([]lra.Term, len(lp.czIDs))
		for i, id := range lp.czIDs {
			terms[i] = lra.Term{Var: lp.czVar[id], Coeff: big.NewRat(1, 1)}
		}
		sum, ok := lp.slack(terms)
		if !ok {
			return
		}
		lp.addBound(sum, false, numeric.DeltaFromRat(big.NewRat(int64(k), 1)),
			fmt.Sprintf("resource bound: at most %d altered measurements (relaxed)", k))
	}
	if k := sc.MaxCompromisedBuses; k > 0 {
		byBus := make(map[int][]int)
		for _, id := range lp.czIDs {
			j, err := sys.HomeBus(id)
			if err != nil {
				lp.fail("screen: " + err.Error())
				return
			}
			byBus[j] = append(byBus[j], id)
		}
		buses := make([]int, 0, len(byBus))
		for j := range byBus {
			buses = append(buses, j)
		}
		sort.Ints(buses)
		cbTerms := make([]lra.Term, 0, len(buses))
		for _, j := range buses {
			cb := lp.newVar(fmt.Sprintf("cb_%d", j))
			lp.cbVar[j] = cb
			lp.addBound(cb, true, numeric.Delta{}, fmt.Sprintf("compromise indicator cb_%d ≥ 0", j))
			lp.addBound(cb, false, one, fmt.Sprintf("compromise indicator cb_%d ≤ 1", j))
			for _, id := range byBus[j] {
				d, ok := lp.slack([]lra.Term{{Var: cb, Coeff: big.NewRat(1, 1)}, {Var: lp.czVar[id], Coeff: big.NewRat(-1, 1)}})
				if !ok {
					return
				}
				lp.addBound(d, true, numeric.Delta{}, fmt.Sprintf("cb_%d dominates cz_%d", j, id))
			}
			cbTerms = append(cbTerms, lra.Term{Var: cb, Coeff: big.NewRat(1, 1)})
		}
		sum, ok := lp.slack(cbTerms)
		if !ok {
			return
		}
		lp.addBound(sum, false, numeric.DeltaFromRat(big.NewRat(int64(k), 1)),
			fmt.Sprintf("resource bound: at most %d compromised buses (relaxed)", k))
	}
}

// pick is one chosen strict sign for a goal conjunct, carried from the
// probing phase into the combined accept attempt.
type pick struct {
	v        int
	positive bool
	desc     string
}

func strictSign(positive bool) (numeric.Delta, bool) {
	if positive {
		return numeric.NewDelta(new(big.Rat), big.NewRat(1, 1)), true // > 0 as lower bound 0 + δ
	}
	return numeric.NewDelta(new(big.Rat), big.NewRat(-1, 1)), false // < 0 as upper bound 0 − δ
}

// probe checks whether the relaxation admits expr(v) with the given
// strict sign. It returns (feasible, certificate-if-refuted, why) —
// a non-empty why means the probe could not be decided (budget,
// cancellation, or an unreconstructible Farkas combination).
func (lp *lpRelaxation) probe(v int, positive bool, desc string) (bool, *screen.Certificate, string) {
	lp.probes++
	op := ">"
	if !positive {
		op = "<"
	}
	pdesc := fmt.Sprintf("probe: %s %s 0", desc, op)
	d, lower := strictSign(positive)
	lp.s.Push()
	defer lp.s.Pop(1)
	if conflict := lp.addBound(v, lower, d, pdesc); conflict != nil {
		cert := lp.certify(pdesc, conflict)
		if cert == nil {
			return false, nil, "screen: incomplete Farkas explanation for " + pdesc
		}
		return false, cert, ""
	}
	tags, err := lp.s.CheckBudget()
	if err != nil {
		return false, nil, "screen: " + err.Error()
	}
	if tags == nil {
		return true, nil, ""
	}
	cert := lp.certify(pdesc, tags)
	if cert == nil {
		return false, nil, "screen: incomplete Farkas explanation for " + pdesc
	}
	return false, cert, ""
}

// probeSigns probes both strict signs of a goal expression. sign is +1 or
// −1 for the first feasible direction, or 0 with both refutation
// certificates when the relaxation forces the expression to zero.
func (lp *lpRelaxation) probeSigns(v int, desc string) (int, []*screen.Certificate, string) {
	posOK, posCert, why := lp.probe(v, true, desc)
	if why != "" {
		return 0, nil, why
	}
	if posOK {
		return 1, nil, ""
	}
	negOK, negCert, why := lp.probe(v, false, desc)
	if why != "" {
		return 0, nil, why
	}
	if negOK {
		return -1, nil, ""
	}
	return 0, []*screen.Certificate{posCert, negCert}, ""
}

// trivialPairCertificates hand-builds the refutation of a distinct-pair
// goal over the same bus twice: Δθ_j − Δθ_j > 0 reduces to the termless
// strict bound 0 > 0, which is its own Farkas contradiction.
func trivialPairCertificates(j int) []*screen.Certificate {
	mk := func(op string, lower bool) *screen.Certificate {
		return &screen.Certificate{
			Desc: fmt.Sprintf("probe: dtheta_%d − dtheta_%d %s 0", j, j, op),
			Bounds: []screen.Bound{{
				Desc:   fmt.Sprintf("probe: dtheta_%d − dtheta_%d %s 0", j, j, op),
				Lower:  lower,
				Value:  new(big.Rat),
				Strict: true,
			}},
			Coeffs: []*big.Rat{big.NewRat(1, 1)},
		}
	}
	return []*screen.Certificate{mk(">", true), mk("<", false)}
}

func inconclusive(why string) *ScreenResult {
	return &ScreenResult{Verdict: screen.Inconclusive, Why: why}
}

// run executes the screening protocol: sign probes per goal conjunct
// (fast-reject with certificates), then a combined solution, sparsified
// and replayed exactly (fast-accept with witness). Anything undecidable
// degrades to Inconclusive.
func (lp *lpRelaxation) run() *ScreenResult {
	if lp.buildErr != "" {
		return inconclusive(lp.buildErr)
	}
	sc := lp.sc

	if len(sc.TargetStates) == 0 && len(sc.DistinctPairs) == 0 && !sc.AnyState {
		return &ScreenResult{
			Verdict: screen.FeasibleIntegral,
			Why:     "empty goal: the all-zero attack satisfies the model",
			Result:  &Result{Feasible: true, StateChanges: map[int]*big.Rat{}, TopoFlowDeltas: map[int]*big.Rat{}},
		}
	}

	var picks []pick
	seenTarget := make(map[int]bool)
	for _, t := range sc.TargetStates {
		if seenTarget[t] {
			continue
		}
		seenTarget[t] = true
		desc := fmt.Sprintf("dtheta_%d", t)
		sign, certs, why := lp.probeSigns(lp.theta[t], desc)
		if why != "" {
			return inconclusive(why)
		}
		if sign == 0 {
			return &ScreenResult{
				Verdict:      screen.Infeasible,
				Why:          fmt.Sprintf("target state %d is forced unchanged by the relaxation", t),
				Certificates: certs,
			}
		}
		picks = append(picks, pick{v: lp.theta[t], positive: sign > 0, desc: desc})
	}

	for _, pr := range sc.DistinctPairs {
		if pr[0] == pr[1] {
			return &ScreenResult{
				Verdict:      screen.Infeasible,
				Why:          fmt.Sprintf("distinct-pair goal compares state %d with itself", pr[0]),
				Certificates: trivialPairCertificates(pr[0]),
			}
		}
		v, ok := lp.slack([]lra.Term{
			{Var: lp.theta[pr[0]], Coeff: big.NewRat(1, 1)},
			{Var: lp.theta[pr[1]], Coeff: big.NewRat(-1, 1)},
		})
		if !ok {
			return inconclusive(lp.buildErr)
		}
		desc := fmt.Sprintf("dtheta_%d − dtheta_%d", pr[0], pr[1])
		sign, certs, why := lp.probeSigns(v, desc)
		if why != "" {
			return inconclusive(why)
		}
		if sign == 0 {
			return &ScreenResult{
				Verdict:      screen.Infeasible,
				Why:          fmt.Sprintf("states %d and %d are forced equal by the relaxation", pr[0], pr[1]),
				Certificates: certs,
			}
		}
		picks = append(picks, pick{v: v, positive: sign > 0, desc: desc})
	}

	// AnyState (never combined with targets, see Scenario.Validate): scan
	// for a witness bus and reject only when every state is blocked in
	// both signs.
	anyBus := 0
	if sc.AnyState {
		var certs []*screen.Certificate
		for j := 1; j <= lp.sys.Buses; j++ {
			if j == sc.RefBus {
				continue
			}
			desc := fmt.Sprintf("dtheta_%d", j)
			sign, cs, why := lp.probeSigns(lp.theta[j], desc)
			if why != "" {
				return inconclusive(why)
			}
			if sign == 0 {
				certs = append(certs, cs...)
				continue
			}
			anyBus = j
			picks = append(picks, pick{v: lp.theta[j], positive: sign > 0, desc: desc})
			break
		}
		if anyBus == 0 {
			return &ScreenResult{
				Verdict:      screen.Infeasible,
				Why:          "anystate goal: every state delta is forced to zero by the relaxation",
				Certificates: certs,
			}
		}
	}

	// Combined accept attempt: assert every chosen sign at once.
	lp.s.Push()
	defer lp.s.Pop(1)
	for _, pk := range picks {
		op := ">"
		if !pk.positive {
			op = "<"
		}
		d, lower := strictSign(pk.positive)
		if conflict := lp.addBound(pk.v, lower, d, fmt.Sprintf("goal sign: %s %s 0", pk.desc, op)); conflict != nil {
			return inconclusive("goal sign combination conflicts in the relaxation")
		}
	}
	tags, err := lp.s.CheckBudget()
	if err != nil {
		return inconclusive("screen: " + err.Error())
	}
	if tags != nil {
		return inconclusive("goal sign combination infeasible in the relaxation")
	}

	attack, why := lp.replay(lp.s.Model(), anyBus)
	if attack == nil && len(lp.czIDs) > 0 {
		// The raw vertex over-spends a relaxed budget. Sparsify — push the
		// continuous indicators down — and replay once more. The primal
		// simplex keeps the tableau feasible throughout, so running out of
		// the (deliberately small) pivot allowance mid-optimize still
		// leaves a usable model; the allowance keeps a fruitless
		// sparsification from dominating the screen's cost.
		st := lp.s.Statistics()
		allowance := st.Pivots + sparsifyPivotCap
		if lp.maxPivots > 0 && lp.maxPivots < allowance {
			allowance = lp.maxPivots
		}
		lp.s.SetMaxPivots(allowance)
		obj := make([]lra.Term, len(lp.czIDs))
		for i, id := range lp.czIDs {
			obj[i] = lra.Term{Var: lp.czVar[id], Coeff: big.NewRat(-1, 1)}
		}
		_, err := lp.s.Maximize(obj)
		lp.s.SetMaxPivots(lp.maxPivots)
		if err != nil && errors.Is(err, lra.ErrInfeasible) {
			return inconclusive("screen: sparsification reported infeasible after a feasible check")
		}
		attack, why = lp.replay(lp.s.Model(), anyBus)
	}
	if attack == nil {
		return inconclusive(why)
	}
	return &ScreenResult{
		Verdict: screen.FeasibleIntegral,
		Why:     "relaxed solution replayed exactly as a concrete attack",
		Result:  attack,
	}
}
