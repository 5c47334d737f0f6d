package smt

import (
	"fmt"
	"math/big"

	"segrid/internal/cnf"
	"segrid/internal/lra"
	"segrid/internal/numeric"
	"segrid/internal/proof"
	"segrid/internal/sat"
)

// atomKey identifies a canonical upper-bound atom: slack ≤ rhs + k·δ. The
// rhs is keyed numerically when it fits machine words (the overwhelmingly
// common case) so the hot encode path does not allocate a string per atom;
// bigRHS carries the RatString fallback for out-of-range rationals.
type atomKey struct {
	slack    int
	num, den int64
	bigRHS   string
	k        int8
}

func makeAtomKey(slack int, rhs *big.Rat, k int8) atomKey {
	ak := atomKey{slack: slack, k: k}
	if num, den := rhs.Num(), rhs.Denom(); num.IsInt64() && den.IsInt64() {
		ak.num, ak.den = num.Int64(), den.Int64()
	} else {
		ak.bigRHS = rhs.RatString()
	}
	return ak
}

// boundSpec is the theory meaning of an atom's SAT variable. The positive
// literal asserts slack ≤ pos; the negative literal asserts slack ≥ neg.
type boundSpec struct {
	slack int
	pos   numeric.Delta // upper bound when the literal is true
	neg   numeric.Delta // lower bound when the literal is false
}

// theoryAdapter bridges the simplex solver into the SAT core's Theory hook.
type theoryAdapter struct {
	simplex *lra.Simplex
	bounds  map[sat.Var]boundSpec
	// proof, when logging is on, receives the Farkas coefficients of each
	// simplex conflict just before the SAT core logs the lemma clause built
	// from it — the two calls are paired by that ordering.
	proof *proof.Writer
}

var _ sat.Theory = (*theoryAdapter)(nil)

func (t *theoryAdapter) Assert(l sat.Lit) []sat.Lit {
	spec, ok := t.bounds[l.Var()]
	if !ok {
		return nil
	}
	var conflict []lra.Tag
	if l.IsNeg() {
		conflict = t.simplex.AssertLower(spec.slack, spec.neg, lra.Tag(l))
	} else {
		conflict = t.simplex.AssertUpper(spec.slack, spec.pos, lra.Tag(l))
	}
	t.stageCertificate(conflict)
	return tagsToLits(conflict)
}

func (t *theoryAdapter) Check(final bool) ([]sat.Lit, error) {
	tags, err := t.simplex.CheckBudget()
	if err != nil {
		return nil, err
	}
	t.stageCertificate(tags)
	return tagsToLits(tags), nil
}

func (t *theoryAdapter) stageCertificate(conflict []lra.Tag) {
	if t.proof == nil || conflict == nil {
		return
	}
	t.proof.StageFarkas(t.simplex.LastFarkas())
}

func (t *theoryAdapter) Push()     { t.simplex.Push() }
func (t *theoryAdapter) Pop(n int) { t.simplex.Pop(n) }

func tagsToLits(tags []lra.Tag) []sat.Lit {
	if tags == nil {
		return nil
	}
	lits := make([]sat.Lit, len(tags))
	for i, tg := range tags {
		lits[i] = sat.Lit(tg)
	}
	return lits
}

// encoder lowers the assertion stack into one SAT instance plus simplex
// tableau that persist across Check calls. Scoped assertions are guarded by
// their scope's selector literal (see Solver); Tseitin definitions, atom
// bindings and slack rows are pure equivalences, so they are emitted
// unguarded and shared by every later check.
type encoder struct {
	owner   *Solver
	sat     *sat.Solver
	simplex *lra.Simplex
	theory  *theoryAdapter

	realToSimplex []int
	slackByKey    map[string]int
	atomVars      map[atomKey]sat.Var
	boolToSat     []sat.Var
	memo          map[Formula]sat.Lit

	trueLit sat.Lit
	nAtoms  int

	// defArena backs kernel derivation of definitional clauses (gates and
	// cardinality circuits); its views are handed straight to AddClause,
	// which copies, so reuse across derivations is safe.
	defArena cnf.Arena

	// curSel is the selector literal of the scope currently being encoded;
	// LitUndef while encoding the base scope (clauses added unguarded).
	curSel sat.Lit

	// Per-check stat baselines: the SAT and simplex counters are cumulative
	// across the instance's lifetime, so per-check Stats are reported as
	// deltas from the values captured by beginCheck.
	baseSat sat.Stats
	baseLra lra.Stats
}

func newEncoder(owner *Solver) *encoder {
	simplex := lra.NewSimplex()
	theory := &theoryAdapter{simplex: simplex, bounds: make(map[sat.Var]boundSpec)}
	// The proof writer outlives the encoder (FreshPerCheck rebuilds one per
	// Check); a Restart record tells the checker to start a new segment. The
	// logger is only installed when non-nil — a typed-nil interface would
	// defeat the solver's nil checks.
	var plog sat.ProofLogger
	if w := owner.opts.Proof; w != nil {
		w.Restart()
		theory.proof = w
		plog = w
	}
	e := &encoder{
		owner: owner,
		sat: sat.NewSolver(sat.Options{
			Theory: theory,
			Proof:  plog,
		}),
		simplex:    simplex,
		theory:     theory,
		slackByKey: make(map[string]int),
		atomVars:   make(map[atomKey]sat.Var),
		memo:       make(map[Formula]sat.Lit),
		curSel:     sat.LitUndef,
	}
	// A dedicated always-true literal anchors constant formulas; it is a
	// zero-input Tseitin gate so its unit clause carries provenance too.
	e.trueLit = e.defineGate(cnf.GateTrue, nil)
	e.syncVars()
	return e
}

// defineGate allocates a fresh output variable for a Tseitin gate over the
// given input literals, logs its provenance, and adds the definitional
// clauses exactly as the cnf kernel derives them. The gate record and its
// clauses form one contiguous run in the certificate — the proof writer
// swallows each clause after matching it against the same kernel derivation,
// and the checker re-derives them from the record alone.
func (e *encoder) defineGate(g cnf.Gate, inputs []sat.Lit) sat.Lit {
	zv := e.sat.NewVar()
	if w := e.owner.opts.Proof; w != nil {
		w.DefineGate(g, zv, inputs)
	}
	for _, cl := range e.defArena.GateClauses(g, sat.PosLit(zv), inputs) {
		e.mustAdd(cl...)
	}
	return sat.PosLit(zv)
}

// syncVars registers solver-level variables created since the last check
// with the SAT core and the simplex, keeping models total.
func (e *encoder) syncVars() {
	for i := len(e.realToSimplex); i < len(e.owner.realNames); i++ {
		e.realToSimplex = append(e.realToSimplex, e.simplex.NewVar())
	}
	for i := len(e.boolToSat); i < len(e.owner.boolNames); i++ {
		e.boolToSat = append(e.boolToSat, e.sat.NewVar())
	}
}

// beginCheck prepares the persistent instance for one Check call: late-bound
// variables are registered, the per-call budgets and stop hooks installed,
// and the stat baselines captured.
func (e *encoder) beginCheck(b Budget, ctrl *controller) {
	e.syncVars()
	e.sat.SetBudgets(b.MaxConflicts)
	e.sat.SetStop(ctrl.stopFunc(PointCDCL))
	e.simplex.SetStop(ctrl.stopFunc(PointSimplex))
	if b.MaxPivots > 0 {
		// The simplex pivot budget is cumulative by contract; offset it by
		// the pivots already spent so the bound covers this check only.
		e.simplex.SetMaxPivots(e.simplex.Statistics().Pivots + b.MaxPivots)
	} else {
		e.simplex.SetMaxPivots(0)
	}
	e.baseSat = e.sat.Statistics()
	e.baseLra = e.simplex.Statistics()
}

func (e *encoder) mustAdd(lits ...sat.Lit) {
	if err := e.sat.AddClause(lits...); err != nil {
		// Clauses are built from variables the encoder itself created;
		// a failure here is a bug, not an input error.
		panic(fmt.Sprintf("smt: internal clause error: %v", err))
	}
}

// add emits an assertion clause guarded by the current scope's selector:
// scoped clauses become C ∨ ¬sel, so they bind only while sel is assumed and
// are permanently disabled by the unit ¬sel that Pop adds. Base-scope
// clauses (curSel undefined) are unconditional; an empty base-scope clause
// marks the instance unsatisfiable for good.
func (e *encoder) add(lits ...sat.Lit) {
	if e.curSel != sat.LitUndef {
		lits = append(lits, e.curSel.Not())
	}
	e.mustAdd(lits...)
}

// assertTop asserts a formula at the top level, flattening conjunctions and
// emitting disjunctions of literals as plain clauses.
func (e *encoder) assertTop(f Formula) error {
	switch g := f.(type) {
	case *constF:
		if !g.val {
			e.add() // empty clause: false in this scope
		}
		return nil
	case *andF:
		for _, c := range g.fs {
			if err := e.assertTop(c); err != nil {
				return err
			}
		}
		return nil
	case *orF:
		lits := make([]sat.Lit, 0, len(g.fs)+1)
		for _, c := range g.fs {
			l, err := e.encode(c)
			if err != nil {
				return err
			}
			lits = append(lits, l)
		}
		e.add(lits...)
		return nil
	default:
		l, err := e.encode(f)
		if err != nil {
			return err
		}
		e.add(l)
		return nil
	}
}

// encode lowers a formula to a SAT literal (Tseitin transformation with
// structural sharing by node identity). Definitional clauses are pure
// equivalences between the fresh variable and its formula, so they are
// emitted unguarded and stay valid in every scope and every later check.
func (e *encoder) encode(f Formula) (sat.Lit, error) {
	if l, ok := e.memo[f]; ok {
		return l, nil
	}
	var lit sat.Lit
	switch g := f.(type) {
	case *constF:
		if g.val {
			lit = e.trueLit
		} else {
			lit = e.trueLit.Not()
		}
	case *boolF:
		if int(g.v) >= len(e.boolToSat) {
			return 0, fmt.Errorf("smt: formula references unknown Boolean variable b%d", g.v)
		}
		lit = sat.PosLit(e.boolToSat[g.v])
	case *notF:
		inner, err := e.encode(g.f)
		if err != nil {
			return 0, err
		}
		lit = inner.Not()
	case *andF:
		// Children are encoded before the gate's output variable is
		// allocated, so the provenance record can precede a contiguous run
		// of definitional clauses over already-defined inputs.
		ins := make([]sat.Lit, 0, len(g.fs))
		for _, c := range g.fs {
			cl, err := e.encode(c)
			if err != nil {
				return 0, err
			}
			ins = append(ins, cl)
		}
		lit = e.defineGate(cnf.GateAnd, ins)
	case *orF:
		ins := make([]sat.Lit, 0, len(g.fs))
		for _, c := range g.fs {
			cl, err := e.encode(c)
			if err != nil {
				return 0, err
			}
			ins = append(ins, cl)
		}
		lit = e.defineGate(cnf.GateOr, ins)
	case *atomF:
		l, err := e.encodeAtom(g)
		if err != nil {
			return 0, err
		}
		lit = l
	default:
		return 0, fmt.Errorf("smt: unknown formula node %T", f)
	}
	e.memo[f] = lit
	return lit, nil
}

// encodeAtom maps an arithmetic atom to a (possibly negated) theory literal
// over a canonical upper-bound atom on a shared slack variable.
func (e *encoder) encodeAtom(a *atomF) (sat.Lit, error) {
	vars, ratios, factor, key := a.expr.normTerms()
	rhs := new(big.Rat).Quo(a.rhs, factor)
	op := a.op
	if factor.Sign() < 0 {
		switch op {
		case opLE:
			op = opGE
		case opGE:
			op = opLE
		case opLT:
			op = opGT
		case opGT:
			op = opLT
		}
	}

	slackVar, err := e.slackFor(vars, ratios, key)
	if err != nil {
		return 0, err
	}

	// Canonical form: an upper-bound atom "slack ≤ rhs + k·δ" (k ∈ {0,−1}),
	// possibly negated.
	var k int8
	negated := false
	switch op {
	case opLE:
		k = 0
	case opLT:
		k = -1
	case opGE: // s ≥ c ⇔ ¬(s < c)
		k, negated = -1, true
	case opGT: // s > c ⇔ ¬(s ≤ c)
		k, negated = 0, true
	}

	ak := makeAtomKey(slackVar, rhs, k)
	v, ok := e.atomVars[ak]
	if !ok {
		v = e.sat.NewVar()
		e.sat.WatchTheoryVar(v)
		e.atomVars[ak] = v
		e.nAtoms++
		kr := big.NewRat(int64(k), 1)
		negKr := big.NewRat(int64(k)+1, 1)
		spec := boundSpec{
			slack: slackVar,
			pos:   numeric.NewDelta(rhs, kr),
			// ¬(s ≤ c + k·δ) ⇔ s ≥ c + (k+1)·δ
			neg: numeric.NewDelta(rhs, negKr),
		}
		e.theory.bounds[v] = spec
		if w := e.owner.opts.Proof; w != nil {
			w.DefineAtom(int(v), spec.slack, spec.pos, spec.neg)
		}
	}
	l := sat.PosLit(v)
	if negated {
		l = l.Not()
	}
	return l, nil
}

// slackFor returns the simplex variable representing the canonical
// expression given as parallel (vars, ratios) slices, introducing a slack
// row on first use. Single-variable canonical expressions map directly to
// the variable.
func (e *encoder) slackFor(vars []RealVar, ratios []*big.Rat, key string) (int, error) {
	if sv, ok := e.slackByKey[key]; ok {
		return sv, nil
	}
	if len(vars) == 1 {
		v := vars[0]
		if int(v) >= len(e.realToSimplex) {
			return 0, fmt.Errorf("smt: atom references unknown real variable x%d", v)
		}
		// Canonical leading coefficient is 1, so the expression is the
		// variable itself.
		sv := e.realToSimplex[v]
		e.slackByKey[key] = sv
		return sv, nil
	}
	terms := make([]lra.Term, 0, len(vars))
	for i, v := range vars {
		if int(v) >= len(e.realToSimplex) {
			return 0, fmt.Errorf("smt: atom references unknown real variable x%d", v)
		}
		terms = append(terms, lra.Term{Var: e.realToSimplex[v], Coeff: ratios[i]})
	}
	sv, err := e.simplex.DefineSlack(terms)
	if err != nil {
		return 0, fmt.Errorf("smt: define slack: %w", err)
	}
	if w := e.owner.opts.Proof; w != nil {
		// The terms reference original simplex variables only (never other
		// slacks), so the checker eliminates slacks in one substitution pass.
		pterms := make([]proof.Term, len(terms))
		for i, t := range terms {
			pterms[i] = proof.Term{Var: t.Var, Coeff: numeric.QFromRat(t.Coeff)}
		}
		w.DefineSlack(sv, pterms)
	}
	e.slackByKey[key] = sv
	return sv, nil
}

// statsSnapshot captures one check's work: sizes are the instance's current
// totals, counters are deltas from the beginCheck baselines. It is valid
// both after a completed solve and mid-flight (partial stats on
// interruption).
func (e *encoder) statsSnapshot() Stats {
	sst := e.sat.Statistics()
	lst := e.simplex.Statistics()
	return Stats{
		BoolVars:     sst.Vars,
		Clauses:      sst.Clauses,
		RealVars:     len(e.realToSimplex),
		Atoms:        e.nAtoms,
		SlackVars:    lst.Rows,
		Conflicts:    sst.Conflicts - e.baseSat.Conflicts,
		Decisions:    sst.Decisions - e.baseSat.Decisions,
		Propagations: sst.Propagations - e.baseSat.Propagations,
		Restarts:     sst.Restarts - e.baseSat.Restarts,
		TheoryChecks: sst.TheoryChecks - e.baseSat.TheoryChecks,
		Pivots:       lst.Pivots - e.baseLra.Pivots,
		FastOps:      lst.FastOps - e.baseLra.FastOps,
		BigOps:       lst.BigOps - e.baseLra.BigOps,
	}
}

// solve runs the SAT search under the live scopes' selector assumptions and
// packages the result. An error return means the search was interrupted
// (budget or cancellation); res still carries the partial Stats. The solver
// is always backtracked to level 0 afterwards so clauses can be added before
// the next check.
func (e *encoder) solve(assumps []sat.Lit) (*Result, error) {
	res := &Result{}
	status, err := e.sat.SolveAssuming(assumps...)
	res.Stats = e.statsSnapshot()
	if err != nil {
		e.sat.Backtrack()
		res.Status = Unknown
		return res, err
	}
	switch status {
	case sat.StatusSat:
		res.Status = Sat
		// Extract the model before Backtrack: the trail assignment and the
		// simplex's active bounds (which fix the δ perturbation used to
		// rationalize strict bounds) survive only until the backtrack.
		res.boolVals = make([]bool, len(e.boolToSat))
		for i, v := range e.boolToSat {
			res.boolVals[i] = e.sat.Value(v)
		}
		model := e.simplex.Model()
		res.realVals = make([]*big.Rat, len(e.realToSimplex))
		for i, sv := range e.realToSimplex {
			res.realVals[i] = model[sv]
		}
	case sat.StatusUnsat:
		res.Status = Unsat
		if w := e.owner.opts.Proof; w != nil {
			// FinalConflict names the responsible scope selectors (nil for an
			// absolute UNSAT); the certificate records them so the answer is
			// checkable relative to exactly the scopes that were live.
			check := w.EndUnsat(e.sat.FinalConflict())
			res.Proof = &proof.Handle{Path: w.Path(), Check: check}
		}
	default:
		res.Status = Unknown
	}
	e.sat.Backtrack()
	return res, nil
}
