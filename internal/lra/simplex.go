// Package lra implements a decision procedure for quantifier-free linear
// real arithmetic: the general simplex algorithm of Dutertre & de Moura
// ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006).
//
// The solver maintains a tableau of slack-variable definitions over exact
// rationals and a pair of (optionally strict, via delta-rationals) bounds
// per variable. Bounds are asserted incrementally, scopes mirror the SAT
// solver's decision levels, and inconsistencies are explained as minimal
// sets of asserted bound tags, which the SMT layer turns into learnt
// clauses.
//
// Tableau coefficients and variable assignments use the hybrid rational
// numeric.Q: arithmetic stays on an allocation-free int64 fast path and
// promotes to big.Rat per value on overflow. The public API (Term, Model)
// stays on *big.Rat; conversion happens at DefineSlack and Model time.
package lra

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"segrid/internal/numeric"
)

// ErrPivotBudget is returned by CheckBudget and Maximize when the pivot
// budget set with SetMaxPivots is exhausted.
var ErrPivotBudget = errors.New("lra: pivot budget exhausted")

// Tag identifies the assertion that introduced a bound; the SMT layer maps
// tags to SAT literals. Explanations are sets of tags.
type Tag int32

// NoTag marks a static bound that holds unconditionally; static bounds are
// omitted from explanations.
const NoTag Tag = -1

// Term is one summand of a linear expression: Coeff·Var.
type Term struct {
	Var   int
	Coeff *big.Rat
}

// bound is one side of a variable's admissible interval.
type bound struct {
	val numeric.Delta
	tag Tag
	has bool
}

type trailEntry struct {
	v       int
	isLower bool
	old     bound
}

// Stats counts solver work for the evaluation harness.
type Stats struct {
	Vars    int
	Rows    int
	Pivots  int64
	Asserts int64
	Checks  int64
	// FastOps and BigOps count tableau/assignment arithmetic results that
	// stayed on the int64 fast path vs required promoted big.Rat values;
	// their ratio is the hybrid rational's observable promotion rate.
	FastOps int64
	BigOps  int64
}

// Simplex is an incremental LRA feasibility solver. The zero value is not
// usable; construct with NewSimplex.
type Simplex struct {
	nvars  int
	rows   map[int]map[int]numeric.Q // basic var → (nonbasic var → coeff)
	colUse map[int]map[int]bool      // nonbasic var → basic vars using it
	lower  []bound
	upper  []bound
	beta   []numeric.Delta

	trail  []trailEntry
	scopes []int

	// suspect tracks basic variables whose assignment or bounds changed
	// since the last Check; only they can have become bound-violating, so
	// Check scans this set instead of the whole tableau.
	suspect map[int]bool

	stats     Stats
	maxPivots int64
	stop      func() error

	// lastFarkas holds the Farkas coefficients of the most recent conflict
	// explanation, parallel to the returned tags: the explanation's bounds,
	// each scaled by its (positive) coefficient, sum to a contradictory
	// constraint. nil when a participating bound was static (NoTag) and the
	// combination is therefore not reconstructible from tags alone.
	lastFarkas []numeric.Q
}

// NewSimplex constructs an empty solver.
func NewSimplex() *Simplex {
	return &Simplex{
		rows:    make(map[int]map[int]numeric.Q),
		colUse:  make(map[int]map[int]bool),
		suspect: make(map[int]bool),
	}
}

// NewVar introduces a fresh unbounded variable with value 0.
func (s *Simplex) NewVar() int {
	v := s.nvars
	s.nvars++
	s.lower = append(s.lower, bound{})
	s.upper = append(s.upper, bound{})
	s.beta = append(s.beta, numeric.Delta{})
	return v
}

// Statistics returns a snapshot of the work counters.
func (s *Simplex) Statistics() Stats {
	st := s.stats
	st.Vars = s.nvars
	st.Rows = len(s.rows)
	return st
}

// noteQ records whether a freshly computed coefficient stayed on the fast
// path, making the promotion rate observable via Stats.
func (s *Simplex) noteQ(q numeric.Q) {
	if q.IsBig() {
		s.stats.BigOps++
	} else {
		s.stats.FastOps++
	}
}

// noteDelta is noteQ for delta-rational assignment values.
func (s *Simplex) noteDelta(d numeric.Delta) {
	if d.IsBig() {
		s.stats.BigOps++
	} else {
		s.stats.FastOps++
	}
}

// DefineSlack introduces a new basic variable defined as the linear
// combination expr of existing variables and returns it. Definitions must be
// added before any bounds are asserted (the SMT layer rebuilds the tableau
// per check). Variables already basic are substituted by their rows.
func (s *Simplex) DefineSlack(expr []Term) (int, error) {
	row := make(map[int]numeric.Q, len(expr))
	val := numeric.Delta{}
	for _, t := range expr {
		if t.Var < 0 || t.Var >= s.nvars {
			return 0, fmt.Errorf("lra: slack definition references unknown variable %d", t.Var)
		}
		c := numeric.QFromRat(t.Coeff)
		if c.Sign() == 0 {
			continue
		}
		if sub, ok := s.rows[t.Var]; ok {
			// Substitute the basic variable's defining row.
			for v2, c2 := range sub {
				s.addCoeff(row, v2, c.Mul(c2))
			}
		} else {
			s.addCoeff(row, t.Var, c)
		}
	}
	sv := s.NewVar()
	for v, c := range row {
		val = val.Add(s.beta[v].MulQ(c))
		s.useCol(v, sv)
	}
	s.rows[sv] = row
	s.beta[sv] = val
	return sv, nil
}

// addCoeff accumulates c into row[v], dropping the entry when the sum
// cancels to zero. Q values are immutable, so the stored coefficient can
// alias the argument without copying.
func (s *Simplex) addCoeff(row map[int]numeric.Q, v int, c numeric.Q) {
	if old, ok := row[v]; ok {
		sum := old.Add(c)
		s.noteQ(sum)
		if sum.Sign() == 0 {
			delete(row, v)
		} else {
			row[v] = sum
		}
	} else {
		row[v] = c
	}
}

func (s *Simplex) useCol(v, basic int) {
	set, ok := s.colUse[v]
	if !ok {
		set = make(map[int]bool)
		s.colUse[v] = set
	}
	set[basic] = true
}

func (s *Simplex) isBasic(v int) bool {
	_, ok := s.rows[v]
	return ok
}

// Push opens a backtracking scope.
func (s *Simplex) Push() { s.scopes = append(s.scopes, len(s.trail)) }

// Pop discards the n most recent scopes, restoring all bounds asserted in
// them. The variable assignment is kept: relaxing bounds preserves the
// invariant that nonbasic variables satisfy their bounds.
func (s *Simplex) Pop(n int) {
	if n <= 0 {
		return
	}
	if n > len(s.scopes) {
		n = len(s.scopes)
	}
	target := s.scopes[len(s.scopes)-n]
	s.scopes = s.scopes[:len(s.scopes)-n]
	for i := len(s.trail) - 1; i >= target; i-- {
		e := s.trail[i]
		if e.isLower {
			s.lower[e.v] = e.old
		} else {
			s.upper[e.v] = e.old
		}
	}
	s.trail = s.trail[:target]
}

// AssertLower asserts v ≥ d (use a delta component for strict bounds). It
// returns a conflict explanation, or nil.
func (s *Simplex) AssertLower(v int, d numeric.Delta, tag Tag) []Tag {
	s.stats.Asserts++
	if s.lower[v].has && d.Cmp(s.lower[v].val) <= 0 {
		return nil // not tighter
	}
	if s.upper[v].has && d.Cmp(s.upper[v].val) > 0 {
		return s.explainPair(tag, s.upper[v].tag)
	}
	s.trail = append(s.trail, trailEntry{v: v, isLower: true, old: s.lower[v]})
	s.lower[v] = bound{val: d, tag: tag, has: true}
	if s.isBasic(v) {
		s.suspect[v] = true
	} else if s.beta[v].Cmp(d) < 0 {
		s.update(v, d)
	}
	return nil
}

// AssertUpper asserts v ≤ d. It returns a conflict explanation, or nil.
func (s *Simplex) AssertUpper(v int, d numeric.Delta, tag Tag) []Tag {
	s.stats.Asserts++
	if s.upper[v].has && d.Cmp(s.upper[v].val) >= 0 {
		return nil
	}
	if s.lower[v].has && d.Cmp(s.lower[v].val) < 0 {
		return s.explainPair(tag, s.lower[v].tag)
	}
	s.trail = append(s.trail, trailEntry{v: v, isLower: false, old: s.upper[v]})
	s.upper[v] = bound{val: d, tag: tag, has: true}
	if s.isBasic(v) {
		s.suspect[v] = true
	} else if s.beta[v].Cmp(d) > 0 {
		s.update(v, d)
	}
	return nil
}

// explainPair explains a direct bound-vs-bound conflict: the two bounds,
// each with Farkas coefficient 1, form an empty interval (lower > upper).
func (s *Simplex) explainPair(a, b Tag) []Tag {
	out := make([]Tag, 0, 2)
	s.lastFarkas = s.lastFarkas[:0]
	complete := true
	for _, t := range [2]Tag{a, b} {
		if t == NoTag {
			complete = false
			continue
		}
		out = append(out, t)
		s.lastFarkas = append(s.lastFarkas, numeric.QFromInt(1))
	}
	if !complete {
		s.lastFarkas = nil
	}
	return out
}

// LastFarkas returns the Farkas coefficients of the most recent conflict
// explanation, parallel to its tags. The slice is overwritten by the next
// conflict; it is nil when the combination involved a static (NoTag) bound.
func (s *Simplex) LastFarkas() []numeric.Q { return s.lastFarkas }

// update moves nonbasic variable v to value d and adjusts all dependent
// basic variables.
func (s *Simplex) update(v int, d numeric.Delta) {
	diff := d.Sub(s.beta[v])
	for b := range s.colUse[v] {
		if row, ok := s.rows[b]; ok {
			if c, ok := row[v]; ok {
				s.beta[b] = s.beta[b].Add(diff.MulQ(c))
				s.noteDelta(s.beta[b])
				s.suspect[b] = true
			}
		}
	}
	s.beta[v] = d
}

// SetMaxPivots bounds the total pivot steps across all subsequent
// CheckBudget and Maximize calls; n ≤ 0 means unlimited. The budget is
// measured against the cumulative Stats.Pivots counter.
func (s *Simplex) SetMaxPivots(n int64) { s.maxPivots = n }

// SetStop installs a cancellation hook polled once per pivot; a non-nil
// return aborts CheckBudget/Maximize with that error. Pass nil to clear.
func (s *Simplex) SetStop(f func() error) { s.stop = f }

// pollBudget enforces the pivot budget and the stop hook between pivots.
func (s *Simplex) pollBudget() error {
	if s.maxPivots > 0 && s.stats.Pivots >= s.maxPivots {
		return ErrPivotBudget
	}
	if s.stop != nil {
		return s.stop()
	}
	return nil
}

// Check restores the simplex invariant, returning nil when the current
// bounds are satisfiable and a conflict explanation otherwise. Bland's rule
// (minimum variable index) guarantees termination. Check ignores the pivot
// budget and stop hook; interruptible callers must use CheckBudget.
func (s *Simplex) Check() []Tag {
	tags, err := s.checkLoop(false)
	if err != nil {
		// Unreachable: budgets are disabled on this path.
		panic("lra: Check interrupted: " + err.Error())
	}
	return tags
}

// CheckBudget is Check under the pivot budget and stop hook: it polls
// between pivots and aborts with a non-nil error when either fires. The
// tableau is left in a consistent (resumable) state; a subsequent call
// continues the repair. A nil, nil return means feasible.
func (s *Simplex) CheckBudget() ([]Tag, error) {
	return s.checkLoop(true)
}

func (s *Simplex) checkLoop(budgeted bool) ([]Tag, error) {
	s.stats.Checks++
	for {
		if budgeted {
			if err := s.pollBudget(); err != nil {
				return nil, err
			}
		}
		b, below := s.pickViolatedBasic()
		if b < 0 {
			return nil, nil
		}
		row := s.rows[b]
		n := s.pickPivot(row, below)
		if n < 0 {
			return s.explainRow(b, row, below), nil
		}
		var target numeric.Delta
		if below {
			target = s.lower[b].val
		} else {
			target = s.upper[b].val
		}
		s.pivotAndUpdate(b, n, target)
	}
}

// pickViolatedBasic returns the smallest-index basic variable violating a
// bound, and whether it is below its lower bound. Returns (−1, false) when
// the assignment is feasible. Only suspect variables can be violating;
// verified-feasible ones are dropped from the set.
func (s *Simplex) pickViolatedBasic() (int, bool) {
	best := -1
	below := false
	for b := range s.suspect {
		if !s.isBasic(b) {
			delete(s.suspect, b)
			continue
		}
		if s.lower[b].has && s.beta[b].Cmp(s.lower[b].val) < 0 {
			if best < 0 || b < best {
				best, below = b, true
			}
		} else if s.upper[b].has && s.beta[b].Cmp(s.upper[b].val) > 0 {
			if best < 0 || b < best {
				best, below = b, false
			}
		} else {
			delete(s.suspect, b)
		}
	}
	return best, below
}

// pickPivot selects the smallest-index nonbasic variable in the row that can
// compensate the violation, or −1 when none exists.
func (s *Simplex) pickPivot(row map[int]numeric.Q, below bool) int {
	best := -1
	for v, c := range row {
		sign := c.Sign()
		var ok bool
		if below {
			// Need to increase the basic variable.
			ok = (sign > 0 && s.canIncrease(v)) || (sign < 0 && s.canDecrease(v))
		} else {
			ok = (sign > 0 && s.canDecrease(v)) || (sign < 0 && s.canIncrease(v))
		}
		if ok && (best < 0 || v < best) {
			best = v
		}
	}
	return best
}

func (s *Simplex) canIncrease(v int) bool {
	return !s.upper[v].has || s.beta[v].Cmp(s.upper[v].val) < 0
}

func (s *Simplex) canDecrease(v int) bool {
	return !s.lower[v].has || s.beta[v].Cmp(s.lower[v].val) > 0
}

// explainRow builds the conflict explanation for a row whose basic variable
// cannot be repaired: the violated bound plus the binding bound of every
// nonbasic variable in the row. Variables are visited in ascending order so
// explanations — and therefore the learnt clauses and the whole search —
// are deterministic despite the map-based tableau.
func (s *Simplex) explainRow(b int, row map[int]numeric.Q, below bool) []Tag {
	tags := make([]Tag, 0, len(row)+1)
	s.lastFarkas = s.lastFarkas[:0]
	complete := true
	add := func(t Tag, coeff numeric.Q) {
		if t == NoTag {
			complete = false
			return
		}
		tags = append(tags, t)
		s.lastFarkas = append(s.lastFarkas, coeff)
	}
	// Farkas view of the conflict: with the row invariant x_b = Σ aⱼ·xⱼ, the
	// violated bound (coefficient 1) plus each binding bound scaled by |aⱼ|
	// sums to a constraint whose variables cancel and whose right-hand side
	// is negative — 0 ≤ rhs < 0.
	if below {
		add(s.lower[b].tag, numeric.QFromInt(1))
	} else {
		add(s.upper[b].tag, numeric.QFromInt(1))
	}
	vars := make([]int, 0, len(row))
	for v := range row {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		c := row[v]
		if below {
			if c.Sign() > 0 {
				add(s.upper[v].tag, c)
			} else {
				add(s.lower[v].tag, c.Neg())
			}
		} else {
			if c.Sign() > 0 {
				add(s.lower[v].tag, c)
			} else {
				add(s.upper[v].tag, c.Neg())
			}
		}
	}
	if !complete {
		s.lastFarkas = nil
	}
	return tags
}

// pivotAndUpdate performs the combined pivot-and-update step: basic variable
// b leaves the basis at value target, nonbasic n enters.
func (s *Simplex) pivotAndUpdate(b, n int, target numeric.Delta) {
	s.stats.Pivots++
	row := s.rows[b]
	a := row[n]
	theta := target.Sub(s.beta[b]).MulQ(a.Inv())
	s.noteDelta(theta)
	s.beta[b] = target
	s.beta[n] = s.beta[n].Add(theta)
	for other := range s.colUse[n] {
		if other == b {
			continue
		}
		if orow, ok := s.rows[other]; ok {
			if c, ok := orow[n]; ok {
				s.beta[other] = s.beta[other].Add(theta.MulQ(c))
				s.noteDelta(s.beta[other])
				s.suspect[other] = true
			}
		}
	}
	s.pivot(b, n)
	// n entered the basis and may have overshot its own bounds; b left it.
	s.suspect[n] = true
	delete(s.suspect, b)
}

// pivot exchanges basic b with nonbasic n in the tableau.
func (s *Simplex) pivot(b, n int) {
	row := s.rows[b]
	a := row[n] // coefficient of n in b's row
	inv := a.Inv()

	// New row for n: n = (1/a)·b − Σ_{j≠n} (c_j/a)·x_j.
	newRow := make(map[int]numeric.Q, len(row))
	newRow[b] = inv
	for v, c := range row {
		if v == n {
			continue
		}
		nc := c.MulNeg(inv)
		s.noteQ(nc)
		newRow[v] = nc
	}

	// Remove b's row and its column uses.
	delete(s.rows, b)
	for v := range row {
		delete(s.colUse[v], b)
	}

	// Substitute n in every other row that uses it.
	users := s.colUse[n]
	delete(s.colUse, n)
	for other := range users {
		orow, ok := s.rows[other]
		if !ok {
			continue
		}
		k, ok := orow[n]
		if !ok {
			continue
		}
		delete(orow, n)
		for v, c := range newRow {
			sum := k.Mul(c)
			if prev, exists := orow[v]; exists {
				sum = prev.Add(sum)
			}
			s.noteQ(sum)
			if sum.Sign() == 0 {
				delete(orow, v)
				delete(s.colUse[v], other)
			} else {
				orow[v] = sum
				s.useCol(v, other)
			}
		}
	}

	// Install n's row.
	s.rows[n] = newRow
	for v := range newRow {
		s.useCol(v, n)
	}
}

// Model returns a concrete rational value for every variable, choosing a
// positive value for δ small enough that every strict bound remains
// satisfied. It must be called after a successful Check.
func (s *Simplex) Model() []*big.Rat {
	eps := s.chooseEpsilon()
	out := make([]*big.Rat, s.nvars)
	for v := 0; v < s.nvars; v++ {
		out[v] = s.beta[v].Eval(eps)
	}
	return out
}

// chooseEpsilon computes a δ value that keeps every bound satisfied when the
// delta-rationals are collapsed to plain rationals.
func (s *Simplex) chooseEpsilon() *big.Rat {
	eps := big.NewRat(1, 1)
	tighten := func(gapA, gapB numeric.Q) {
		// Constraint: gapA + gapB·δ ≥ 0 holds in delta order
		// (gapA > 0, or gapA == 0 ∧ gapB ≥ 0). If gapB < 0 we need
		// δ ≤ gapA / (−gapB).
		if gapB.Sign() >= 0 {
			return
		}
		limit := gapA.Mul(gapB.Neg().Inv()).Rat()
		if limit.Cmp(eps) < 0 {
			eps.Set(limit)
		}
	}
	for v := 0; v < s.nvars; v++ {
		if s.lower[v].has {
			lo := s.lower[v].val
			tighten(s.beta[v].StdQ().Sub(lo.StdQ()), s.beta[v].InfQ().Sub(lo.InfQ()))
		}
		if s.upper[v].has {
			hi := s.upper[v].val
			tighten(hi.StdQ().Sub(s.beta[v].StdQ()), hi.InfQ().Sub(s.beta[v].InfQ()))
		}
	}
	if eps.Sign() <= 0 {
		// Cannot happen after a successful Check; defend anyway.
		return big.NewRat(1, 1000000)
	}
	// Halve to stay strictly inside open constraints at the limit.
	return eps.Mul(eps, big.NewRat(1, 2))
}

// Value returns the delta-rational assignment of v (diagnostics and tests).
func (s *Simplex) Value(v int) numeric.Delta { return s.beta[v] }
