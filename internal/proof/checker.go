package proof

import (
	"errors"
	"fmt"
	"io"
	"os"

	"segrid/internal/cnf"
	"segrid/internal/numeric"
	"segrid/internal/sat"
)

// Report summarizes a successfully checked proof stream.
type Report struct {
	Records      int
	Restarts     int
	Inputs       int
	Derived      int
	TheoryLemmas int
	Deletes      int
	UnsatChecks  int
	GateDefs     int
	CardDefs     int
	// DefClauses counts definitional clauses the checker re-derived through
	// the cnf kernel from gate/cardinality provenance records (they are not
	// serialized in the stream).
	DefClauses int
}

// String renders the report for CLI output.
func (r *Report) String() string {
	return fmt.Sprintf("%d records: %d inputs, %d derived, %d theory lemmas, %d deletions, %d unsat checks, %d restarts, %d gate defs + %d card defs (%d clauses re-derived)",
		r.Records, r.Inputs, r.Derived, r.TheoryLemmas, r.Deletes, r.UnsatChecks, r.Restarts, r.GateDefs, r.CardDefs, r.DefClauses)
}

// Check verifies a proof stream: every derived clause must pass reverse unit
// propagation, every theory lemma must carry valid Farkas coefficients over
// the recorded atom and slack definitions, every gate/cardinality
// definitional clause is re-derived through the shared cnf kernel from its
// provenance record (with the output and register variables required fresh,
// so a definitional extension cannot constrain existing variables), and
// every Unsat record must close under unit propagation from its
// assumptions. The checker trusts only the
// genuinely asserted input clauses; it shares no search code with the solver
// and does arithmetic exclusively through internal/numeric.
func Check(r io.Reader) (*Report, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	c := newChecker()
	rep := &Report{}
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return rep, nil
		}
		if err != nil {
			return nil, err
		}
		rep.Records++
		if err := c.apply(rec, rep); err != nil {
			return nil, fmt.Errorf("proof: record %d (%v): %w", rep.Records, rec.Kind, err)
		}
	}
}

// CheckFile verifies the proof stream stored at path.
func CheckFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("proof: %w", err)
	}
	defer f.Close()
	return Check(f)
}

// vval is the checker's lifted boolean.
type vval int8

const (
	vUndef vval = 0
	vTrue  vval = 1
	vFalse vval = -1
)

// ckClause is a clause in the checker's database. lits is deduplicated and,
// for active clauses, purged of root-false literals at install time (root
// assignments are permanent, so the purge stays valid). Inactive clauses
// (tautologies, clauses satisfied at the root) take no part in propagation.
type ckClause struct {
	id       uint64
	lits     []sat.Lit
	deleted  bool
	inactive bool
}

// atomBound is the recorded theory meaning of a SAT variable.
type atomBound struct {
	slack    int
	pos, neg numeric.Delta
}

// checker replays a proof stream. Propagation uses its own two-watched-
// literal scheme over its own clause store — independent from package sat by
// construction, so solver and checker can only agree by both being right.
type checker struct {
	clauses map[uint64]*ckClause
	watches [][]*ckClause // indexed by int(Lit)
	assigns []vval        // indexed by int(Var)
	reasons []*ckClause   // indexed by int(Var): the clause that propagated it
	trail   []sat.Lit
	qhead   int

	// seen marks SAT variables referenced by any earlier record of the
	// current segment; gate outputs and cardinality registers must be
	// unseen, or a "definitional" record could constrain existing variables
	// and certify a wrong UNSAT.
	seen []bool

	rootConflict bool

	// arena backs the kernel re-derivation of definitional clauses; install
	// copies the literals it keeps, so views can be recycled per record.
	arena cnf.Arena

	slackDefs map[int][]Term
	atoms     map[int]atomBound

	unsatSeen uint64

	// tr, when non-nil, records the dependency structure of the replay for
	// the backward trimming pass; recIdx is the record being applied.
	tr     *trimTracer
	recIdx int
}

func newChecker() *checker {
	c := &checker{}
	c.reset()
	return c
}

// reset clears all per-segment state (everything except the running Unsat
// counter, which numbers checks across the whole stream).
func (c *checker) reset() {
	c.clauses = make(map[uint64]*ckClause)
	c.watches = nil
	c.assigns = nil
	c.reasons = nil
	c.trail = nil
	c.qhead = 0
	c.seen = nil
	c.rootConflict = false
	c.slackDefs = make(map[int][]Term)
	c.atoms = make(map[int]atomBound)
	if c.tr != nil {
		c.tr.resetSegment()
	}
}

func (c *checker) ensureVar(v sat.Var) {
	for int(v) >= len(c.assigns) {
		c.assigns = append(c.assigns, vUndef)
		c.reasons = append(c.reasons, nil)
		c.seen = append(c.seen, false)
		c.watches = append(c.watches, nil, nil)
	}
}

// markSeen records that v is referenced by the current record.
func (c *checker) markSeen(v sat.Var) {
	c.ensureVar(v)
	c.seen[v] = true
}

func (c *checker) isSeen(v sat.Var) bool {
	return int(v) < len(c.seen) && c.seen[v]
}

func (c *checker) value(l sat.Lit) vval {
	if int(l.Var()) >= len(c.assigns) {
		return vUndef
	}
	a := c.assigns[l.Var()]
	if a == vUndef {
		return vUndef
	}
	if l.IsNeg() {
		return -a
	}
	return a
}

// assign makes l true and pushes it on the trail, remembering the clause
// that forced it (nil for assumed literals). The caller guarantees l is
// currently unassigned.
func (c *checker) assign(l sat.Lit, reason *ckClause) {
	c.ensureVar(l.Var())
	if l.IsNeg() {
		c.assigns[l.Var()] = vFalse
	} else {
		c.assigns[l.Var()] = vTrue
	}
	c.reasons[l.Var()] = reason
	c.trail = append(c.trail, l)
}

// propagate runs unit propagation to fixpoint, returning the conflicting
// clause, or nil when none was found.
func (c *checker) propagate() *ckClause {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead] // p is true; visit clauses watching ¬p
		c.qhead++
		ws := c.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			cl := ws[i]
			if cl.deleted {
				continue
			}
			if cl.lits[0] == p.Not() {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			first := cl.lits[0]
			if c.value(first) == vTrue {
				kept = append(kept, cl)
				continue
			}
			found := false
			for k := 2; k < len(cl.lits); k++ {
				if c.value(cl.lits[k]) != vFalse {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					w := cl.lits[1].Not()
					c.watches[w] = append(c.watches[w], cl)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, cl)
			if c.value(first) == vFalse {
				kept = append(kept, ws[i+1:]...)
				c.watches[p] = kept
				c.qhead = len(c.trail)
				return cl
			}
			c.assign(first, cl)
		}
		c.watches[p] = kept
	}
	return nil
}

// undo retracts every assignment above the trail mark.
func (c *checker) undo(mark int) {
	for i := len(c.trail) - 1; i >= mark; i-- {
		c.assigns[c.trail[i].Var()] = vUndef
		c.reasons[c.trail[i].Var()] = nil
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
}

// rup checks the clause by reverse unit propagation: assuming the negation
// of every literal must propagate to a conflict. Temporary assignments are
// retracted before returning.
func (c *checker) rup(lits []sat.Lit) bool {
	mark := len(c.trail)
	conflict := false
	for _, l := range lits {
		c.ensureVar(l.Var())
		switch c.value(l) {
		case vTrue:
			// l already holds at the root, so assuming ¬l is an immediate
			// contradiction: the clause is implied.
			if !conflict {
				conflict = true
				c.noteConflict(nil, l)
			}
		case vUndef:
			c.assign(l.Not(), nil)
		}
	}
	if !conflict {
		if cl := c.propagate(); cl != nil {
			conflict = true
			c.noteConflict(cl, sat.LitUndef)
		}
	}
	c.undo(mark)
	return conflict
}

// noteConflict hands the trimming tracer the clauses a just-found conflict
// rests on: the conflicting clause (or a root-true literal) plus the reason
// chain behind every falsified literal. A plain Check pays one nil test.
func (c *checker) noteConflict(conflict *ckClause, rootLit sat.Lit) {
	if c.tr != nil {
		c.tr.addConflictDeps(c, conflict, rootLit)
	}
}

// install adds a verified clause to the database under the given id. The
// stored literal set is deduplicated; tautologies and root-satisfied clauses
// are kept only for id bookkeeping. Root units are propagated immediately,
// so the root assignment is always at fixpoint between records.
func (c *checker) install(id uint64, lits []sat.Lit) error {
	if _, dup := c.clauses[id]; dup {
		return fmt.Errorf("duplicate clause id %d", id)
	}
	cl := &ckClause{id: id}
	c.clauses[id] = cl
	if c.tr != nil {
		c.tr.noteInstall(c, id)
	}

	dedup := make(map[sat.Lit]bool, len(lits))
	out := make([]sat.Lit, 0, len(lits))
	satisfied := false
	taut := false
	for _, l := range lits {
		c.markSeen(l.Var())
		if dedup[l] {
			continue
		}
		if dedup[l.Not()] {
			taut = true
		}
		dedup[l] = true
		switch c.value(l) {
		case vTrue:
			satisfied = true
		case vFalse:
			// Permanently false at the root: dropping l is justified by the
			// records that made it false, which the trimmer must keep.
			c.noteConflict(nil, l.Not())
			continue
		}
		out = append(out, l)
	}
	cl.lits = out
	if taut || satisfied || c.rootConflict {
		cl.inactive = true
		return nil
	}
	switch len(out) {
	case 0:
		c.rootConflict = true
		cl.inactive = true
		c.noteRootConflict(cl, sat.LitUndef)
	case 1:
		cl.inactive = true // the unit lives in the root assignment instead
		c.assign(out[0], cl)
		if conf := c.propagate(); conf != nil {
			c.rootConflict = true
			c.noteRootConflict(conf, sat.LitUndef)
		}
	default:
		c.watches[out[0].Not()] = append(c.watches[out[0].Not()], cl)
		c.watches[out[1].Not()] = append(c.watches[out[1].Not()], cl)
	}
	return nil
}

// noteRootConflict records the dependency set of the segment's permanent
// root conflict: every later record is entailed by it, so the trimmer
// charges them to this set.
func (c *checker) noteRootConflict(conflict *ckClause, rootLit sat.Lit) {
	if c.tr != nil {
		c.tr.noteRootConflict(c, conflict, rootLit)
	}
}

// checkFarkas verifies a theory lemma: the Farkas combination of the bounds
// asserted by the negations of the clause literals must cancel every
// variable (after substituting slack definitions) and leave a negative
// right-hand side in the delta-rational order — an unsatisfiable constraint
// 0 ≤ rhs < 0.
func (c *checker) checkFarkas(rec *Record) error {
	if len(rec.Lits) == 0 {
		return errors.New("empty theory lemma")
	}
	if len(rec.Coeffs) != len(rec.Lits) {
		return errors.New("farkas coefficient count mismatch")
	}
	linear := make(map[int]numeric.Q, len(rec.Lits))
	addTerm := func(v int, q numeric.Q) {
		sum, ok := linear[v]
		if ok {
			sum = sum.Add(q)
		} else {
			sum = q
		}
		if sum.Sign() == 0 {
			delete(linear, v)
		} else {
			linear[v] = sum
		}
	}
	rhs := numeric.DeltaFromInt(0)
	for i, l := range rec.Lits {
		lam := rec.Coeffs[i]
		if lam.Sign() <= 0 {
			return fmt.Errorf("farkas coefficient %d is not positive", i)
		}
		bl := l.Not() // the asserted bound literal
		ab, ok := c.atoms[int(bl.Var())]
		if !ok {
			return fmt.Errorf("literal %v has no atom definition", bl)
		}
		if c.tr != nil {
			c.tr.noteAtom(c, int(bl.Var()))
		}
		if bl.IsNeg() {
			// slack ≥ neg, i.e. −slack ≤ −neg.
			addTerm(ab.slack, lam.Neg())
			rhs = rhs.Sub(ab.neg.MulQ(lam))
		} else {
			// slack ≤ pos.
			addTerm(ab.slack, lam)
			rhs = rhs.Add(ab.pos.MulQ(lam))
		}
	}
	// Eliminate defined slack variables, highest index first. Definitions
	// only reference lower-numbered variables (enforced at KindSlackDef), so
	// this terminates and needs no cycle detection.
	for {
		v := -1
		for x := range linear {
			if _, ok := c.slackDefs[x]; ok && x > v {
				v = x
			}
		}
		if v < 0 {
			break
		}
		coeff := linear[v]
		delete(linear, v)
		if c.tr != nil {
			c.tr.noteSlack(c, v)
		}
		for _, t := range c.slackDefs[v] {
			addTerm(t.Var, coeff.Mul(t.Coeff))
		}
	}
	if len(linear) != 0 {
		return errors.New("farkas combination does not cancel the variables")
	}
	if rhs.Cmp(numeric.DeltaFromInt(0)) >= 0 {
		return errors.New("farkas combination is not contradictory")
	}
	return nil
}

// noteEntailedByRoot charges a record whose check was skipped (the root
// assignment is already contradictory) to the records that established the
// root conflict, so trimming keeps its justification.
func (c *checker) noteEntailedByRoot() {
	if c.tr != nil {
		c.tr.noteEntailedByRoot(c)
	}
}

// applyGateDef re-derives a Tseitin definition through the cnf kernel and
// installs the derived clauses under the record's claimed id range. The
// output variable must be fresh — unseen by every earlier record of the
// segment — because the gate clauses constrain it as a pure definitional
// extension; a "definition" of an already-constrained variable could turn a
// satisfiable clause set contradictory and certify a wrong UNSAT.
func (c *checker) applyGateDef(rec *Record, rep *Report) error {
	if !rec.Gate.Valid() {
		return fmt.Errorf("unknown gate shape %d", rec.Gate)
	}
	if rec.Var < 0 || rec.Var > maxProofVar {
		return fmt.Errorf("gate output variable %d out of range", rec.Var)
	}
	// Inputs are referenced (hence seen) before the output freshness check,
	// so a self-referential gate is rejected too.
	for _, l := range rec.Lits {
		c.markSeen(l.Var())
	}
	out := sat.Var(rec.Var)
	if c.isSeen(out) {
		return fmt.Errorf("gate output variable %d is not fresh", rec.Var)
	}
	clauses := c.arena.GateClauses(rec.Gate, sat.PosLit(out), rec.Lits)
	for i, cl := range clauses {
		if err := c.install(rec.ID+uint64(i), cl); err != nil {
			return err
		}
	}
	rep.DefClauses += len(clauses)
	return nil
}

// applyCardDef re-derives a cardinality circuit through the cnf kernel and
// installs the derived clauses under the record's claimed id range. Every
// register variable must be fresh, for the same soundness reason as gate
// outputs; the counted literals and the guard are ordinary references.
func (c *checker) applyCardDef(rec *Record, rep *Report) error {
	if rec.Var < 0 || rec.Var > maxProofVar {
		return fmt.Errorf("cardinality register variable %d out of range", rec.Var)
	}
	count, ok := cnf.CardClauseCount(len(rec.Lits), rec.K, maxProofLen)
	if !ok {
		return fmt.Errorf("cardinality circuit over %d literals with bound %d derives too many clauses", len(rec.Lits), rec.K)
	}
	if count == 0 {
		return fmt.Errorf("cardinality circuit over %d literals with bound %d derives no clauses", len(rec.Lits), rec.K)
	}
	for _, l := range rec.Lits {
		c.markSeen(l.Var())
	}
	if rec.Guard != sat.LitUndef {
		c.markSeen(rec.Guard.Var())
	}
	nFresh := cnf.CardFreshVars(len(rec.Lits), rec.K)
	if rec.Var+nFresh-1 > maxProofVar {
		return fmt.Errorf("cardinality circuit registers %d..%d out of range", rec.Var, rec.Var+nFresh-1)
	}
	for i := 0; i < nFresh; i++ {
		if c.isSeen(sat.Var(rec.Var + i)) {
			return fmt.Errorf("cardinality register variable %d is not fresh", rec.Var+i)
		}
	}
	clauses := c.arena.AtMostK(rec.Lits, rec.K, sat.Var(rec.Var), rec.Guard)
	for i, cl := range clauses {
		if err := c.install(rec.ID+uint64(i), cl); err != nil {
			return err
		}
	}
	rep.DefClauses += len(clauses)
	return nil
}

// apply processes one record. Derivation checks are skipped once the root
// assignment is contradictory: the formula is proven unsatisfiable, so every
// later derived clause and Unsat answer is entailed.
func (c *checker) apply(rec *Record, rep *Report) error {
	switch rec.Kind {
	case KindRestart:
		rep.Restarts++
		c.reset()
	case KindSlackDef:
		if _, dup := c.slackDefs[rec.Var]; dup {
			return fmt.Errorf("slack variable %d redefined", rec.Var)
		}
		for _, t := range rec.Terms {
			if t.Var >= rec.Var {
				return fmt.Errorf("slack %d definition references variable %d (not earlier)", rec.Var, t.Var)
			}
			if t.Var < 0 {
				return fmt.Errorf("slack %d definition references negative variable", rec.Var)
			}
		}
		c.slackDefs[rec.Var] = rec.Terms
		if c.tr != nil {
			c.tr.slackRec[rec.Var] = c.recIdx
		}
	case KindAtomDef:
		if _, dup := c.atoms[rec.Var]; dup {
			return fmt.Errorf("atom variable %d redefined", rec.Var)
		}
		if rec.Var >= 0 {
			c.markSeen(sat.Var(rec.Var))
		}
		c.atoms[rec.Var] = atomBound{slack: rec.Slack, pos: rec.Pos, neg: rec.Neg}
		if c.tr != nil {
			c.tr.atomRec[rec.Var] = c.recIdx
		}
	case KindInput:
		rep.Inputs++
		return c.install(rec.ID, rec.Lits)
	case KindDerived:
		rep.Derived++
		if c.rootConflict {
			c.noteEntailedByRoot()
		} else if !c.rup(rec.Lits) {
			return fmt.Errorf("clause %d is not RUP", rec.ID)
		}
		return c.install(rec.ID, rec.Lits)
	case KindTheoryLemma:
		rep.TheoryLemmas++
		if c.rootConflict {
			c.noteEntailedByRoot()
		} else if err := c.checkFarkas(rec); err != nil {
			return fmt.Errorf("lemma %d: %w", rec.ID, err)
		}
		return c.install(rec.ID, rec.Lits)
	case KindGateDef:
		rep.GateDefs++
		return c.applyGateDef(rec, rep)
	case KindCardDef:
		rep.CardDefs++
		return c.applyCardDef(rec, rep)
	case KindDelete:
		rep.Deletes++
		cl, ok := c.clauses[rec.ID]
		if !ok {
			return fmt.Errorf("deleting unknown clause id %d", rec.ID)
		}
		cl.deleted = true
		delete(c.clauses, rec.ID)
	case KindUnsat:
		rep.UnsatChecks++
		c.unsatSeen++
		if rec.Check != c.unsatSeen {
			return fmt.Errorf("unsat check numbered %d, expected %d", rec.Check, c.unsatSeen)
		}
		for _, l := range rec.Lits {
			c.markSeen(l.Var())
		}
		if c.rootConflict {
			c.noteEntailedByRoot()
			return nil
		}
		// Assuming every selector true must propagate to a conflict — which
		// is exactly a RUP check of the clause of negated assumptions.
		negated := make([]sat.Lit, len(rec.Lits))
		for i, l := range rec.Lits {
			negated[i] = l.Not()
		}
		if !c.rup(negated) {
			return errors.New("assumptions do not propagate to a conflict")
		}
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}
