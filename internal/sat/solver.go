package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Status is the outcome of a Solve call.
type Status int8

const (
	// StatusUnknown means the solver stopped before reaching an answer
	// (e.g. a conflict budget was exhausted).
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment was found.
	StatusSat
	// StatusUnsat means the formula is unsatisfiable.
	StatusUnsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned by Solve when the conflict budget is exhausted.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// Stats collects solver counters, useful for the evaluation harness.
type Stats struct {
	Vars         int
	Clauses      int
	Learnts      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	TheoryChecks int64
}

// Options configure a Solver.
type Options struct {
	// Theory, if non-nil, is consulted for literals registered with
	// WatchTheoryVar (DPLL(T) integration). Theory.Check runs after every
	// unit-propagation fixpoint, not only on full assignments: the eager
	// integration the paper's Z3 backend uses.
	Theory Theory
	// MaxConflicts bounds the search; ≤ 0 means unlimited.
	MaxConflicts int64
	// Stop, if non-nil, is polled once at the start of Solve, at every
	// conflict and every stopPollInterval propagations. A non-nil return
	// aborts the search: Solve returns StatusUnknown and that error.
	Stop func() error
	// Proof, if non-nil, receives every input clause, learnt clause, theory
	// lemma and deletion for DRAT-style certificate logging. The nil default
	// costs one pointer check per logging site.
	Proof ProofLogger
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// NewSolver.
type Solver struct {
	opts Options

	clauses    []*clause
	learnts    []*clause
	watches    [][]watcher    // indexed by Lit
	binWatches [][]binWatcher // indexed by Lit; binary clauses only

	assigns  []lbool // indexed by Var
	level    []int32
	reason   []*clause
	polarity []bool // saved phases
	theory   []bool // var is a theory atom

	trail    []Lit
	trailLim []int32
	qhead    int
	thead    int // next trail position to hand to the theory

	activity []float64
	varInc   float64
	order    *varHeap

	clauseInc    float64
	maxLearnts   float64
	seen         []bool
	analyzeStack []Lit

	stats    Stats
	unsat    bool // empty clause added at level 0
	nVars    int
	budget   int64
	nextPoll int64 // propagation count at which Stop is polled next

	// Per-call budget baseline: Statistics() stays cumulative across Solve
	// calls, so the conflict budget is measured against the counter captured
	// at Solve entry. Without it a second Solve on the same instance would
	// compare its fresh budget against the previous calls' accumulated work
	// and spuriously return ErrBudget immediately.
	baseConflicts int64

	conflict []Lit // final conflict of the last SolveAssuming (over assumptions)

	addBuf     []Lit     // scratch for AddClause normalization
	learntBuf  []Lit     // scratch for analyze's learnt clause
	collectBuf []Lit     // scratch for analyze's seen-flag cleanup
	proofBuf   []Lit     // scratch for handing clauses to the proof logger
	clauseMem  []clause  // arena for problem-clause headers
	litMem     []Lit     // arena for problem-clause literal storage
	watchMem   []watcher // arena seeding initial watch-list blocks
}

const (
	varActivityDecay    = 1.0 / 0.95
	clauseActivityDecay = 1.0 / 0.999
	rescaleLimit        = 1e100
	lubyUnit            = 128  // conflicts per restart unit
	stopPollInterval    = 4096 // propagations between Stop polls
)

// NewSolver constructs a solver with the given options.
func NewSolver(opts Options) *Solver {
	s := &Solver{
		opts:      opts,
		varInc:    1,
		clauseInc: 1,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(s.nVars)
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	// polarity=true means the default decision phase is false (lit ¬v).
	s.polarity = append(s.polarity, true)
	s.theory = append(s.theory, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.order.grow(s.nVars)
	s.order.push(v)
	return v
}

// WatchTheoryVar registers v as a theory atom: assignments to v are relayed
// to the theory via Theory.Assert.
func (s *Solver) WatchTheoryVar(v Var) { s.theory[v] = true }

// SetBudgets replaces the per-call conflict budget (≤ 0 means unlimited).
// It takes effect at the next Solve/SolveAssuming call; the budget is
// measured per call, not against the cumulative Statistics() counters, so an
// incremental caller can re-budget every call independently.
func (s *Solver) SetBudgets(maxConflicts int64) {
	s.opts.MaxConflicts = maxConflicts
}

// SetStop replaces the cancellation hook polled during search (nil clears
// it). It takes effect at the next Solve/SolveAssuming call.
func (s *Solver) SetStop(f func() error) { s.opts.Stop = f }

// Statistics returns a snapshot of the solver counters. Counters are
// cumulative across Solve calls; per-call budgets are baselined internally
// at each Solve entry.
func (s *Solver) Statistics() Stats {
	st := s.stats
	st.Vars = s.nVars
	st.Clauses = len(s.clauses)
	st.Learnts = len(s.learnts)
	return st
}

// AddClause adds a clause over existing variables. It must be called at
// decision level 0 — before the first Solve, or between incremental
// Solve/SolveAssuming calls once Backtrack has retracted the model.
// Duplicate literals are merged, tautologies are dropped, and false literals
// (at level 0) are removed.
func (s *Solver) AddClause(lits ...Lit) error {
	if len(s.trailLim) != 0 {
		return errors.New("sat: AddClause called above decision level 0")
	}
	for _, l := range lits {
		if l == LitUndef || int(l.Var()) >= s.nVars {
			return fmt.Errorf("sat: clause references unknown literal %v", l)
		}
	}
	if s.opts.Proof != nil {
		// Log the clause as given: the certificate's input side must match
		// what the caller asserted, and the normalization below only drops
		// literals that are false by the units already logged. Handing the
		// logger a solver-owned copy keeps the variadic argument slice from
		// escaping — without it every AddClause call heap-allocates its
		// arguments even with logging off, and AddClause is the encoding
		// hot path.
		s.proofBuf = append(s.proofBuf[:0], lits...)
		s.opts.Proof.LogInput(s.proofBuf)
	}
	// Normalize: sort, dedupe, drop tautologies and false literals. The
	// scratch buffer and insertion sort keep this allocation-free; clauses
	// are short, so quadratic sorting beats reflection-based sort.Slice.
	sorted := append(s.addBuf[:0], lits...)
	s.addBuf = sorted
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:0]
	var prev Lit = LitUndef
	for _, l := range sorted {
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Not() {
			return nil // tautology
		}
		switch s.value(l) {
		case lTrue:
			return nil // already satisfied at level 0
		case lFalse:
			prev = l
			continue // drop false literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return nil
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
		} else if confl := s.propagate(); confl != nil {
			s.unsat = true
		}
		return nil
	}
	c := s.allocClause(out)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

// allocClause copies lits into arena-backed clause storage, amortizing
// allocation across the whole encoding and search. Problem clauses live for
// the solver's lifetime; learnt clauses deleted by reduceDB leave their slots
// pinned until the solver is dropped, an acceptable trade for the per-check
// solvers this package serves. Chunks are never reallocated once handed out,
// keeping earlier *clause pointers and lits slices valid.
func (s *Solver) allocClause(lits []Lit) *clause {
	if len(s.clauseMem) == cap(s.clauseMem) {
		s.clauseMem = make([]clause, 0, 512)
	}
	s.clauseMem = s.clauseMem[:len(s.clauseMem)+1]
	c := &s.clauseMem[len(s.clauseMem)-1]
	if cap(s.litMem)-len(s.litMem) < len(lits) {
		n := 1 << 13
		if len(lits) > n {
			n = len(lits)
		}
		s.litMem = make([]Lit, 0, n)
	}
	start := len(s.litMem)
	s.litMem = append(s.litMem, lits...)
	c.lits = s.litMem[start:len(s.litMem):len(s.litMem)]
	return c
}

func (s *Solver) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	if len(c.lits) == 2 {
		// Binary clauses get dedicated watch lists: propagation over them
		// never inspects the clause body, and they are never deleted
		// (reduceDB keeps all binary learnts), so the lists need no lazy
		// cleanup.
		s.binWatches[l0.Not()] = append(s.binWatches[l0.Not()], binWatcher{other: l1, c: c})
		s.binWatches[l1.Not()] = append(s.binWatches[l1.Not()], binWatcher{other: l0, c: c})
		return
	}
	s.watchAppend(l0.Not(), watcher{c: c, blocker: l1})
	s.watchAppend(l1.Not(), watcher{c: c, blocker: l0})
}

// watchAppend adds a watcher, seeding fresh lists with an arena-backed block
// with room for several entries: watch lists are numerous and short, and
// letting append grow them 1→2→4 dominated the encoder's allocation profile.
// A list outgrowing its block reallocates normally (the capped three-index
// slice keeps append from spilling into neighboring blocks).
func (s *Solver) watchAppend(l Lit, w watcher) {
	ws := s.watches[l]
	if ws == nil {
		const blockCap = 8
		if cap(s.watchMem)-len(s.watchMem) < blockCap {
			s.watchMem = make([]watcher, 0, 512*blockCap)
		}
		n := len(s.watchMem)
		s.watchMem = s.watchMem[:n+blockCap]
		ws = s.watchMem[n : n : n+blockCap]
	}
	s.watches[l] = append(ws, w)
}

func (s *Solver) detach(c *clause) {
	c.deleted = true // watcher lists drop it lazily during propagation
}

func (s *Solver) value(l Lit) lbool { return litValue(s.assigns[l.Var()], l) }

// Value returns the truth value of v in the model after a sat answer.
func (s *Solver) Value(v Var) bool { return s.assigns[v] == lTrue }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l with the given reason clause. It returns false
// when l is already false (a conflict the caller must handle).
func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.IsNeg())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation until fixpoint, returning a
// conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit clauses watching ¬p
		s.qhead++
		s.stats.Propagations++
		// Binary clauses first: each visit is a single array read plus an
		// assignment lookup, and early conflicts here spare the heavier
		// n-ary traversal.
		for _, bw := range s.binWatches[p] {
			switch s.value(bw.other) {
			case lTrue:
			case lFalse:
				s.qhead = len(s.trail)
				return bw.c
			default:
				s.enqueue(bw.other, bw.c)
			}
		}
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if w.c.deleted {
				continue
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure c.lits[0] is the other watched literal.
			falseLit := p.Not()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watchAppend(c.lits[1].Not(), watcher{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c: c, blocker: first})
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers and bail out.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
			if !s.enqueue(first, c) {
				// enqueue cannot fail here: first is not false.
				panic("sat: internal error: enqueue failed on unit literal")
			}
		}
		s.watches[p] = kept
	}
	return nil
}

// theoryFeed relays newly assigned theory literals to the theory solver in
// trail order. It returns a theory conflict explanation or nil.
func (s *Solver) theoryFeed() []Lit {
	if s.opts.Theory == nil {
		return nil
	}
	for s.thead < len(s.trail) {
		l := s.trail[s.thead]
		s.thead++
		if !s.theory[l.Var()] {
			continue
		}
		if expl := s.opts.Theory.Assert(l); expl != nil {
			return expl
		}
	}
	return nil
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.polarity[v] = s.trail[i].IsNeg()
		if !s.order.contains(v) {
			s.order.push(v)
		}
	}
	if s.opts.Theory != nil {
		s.opts.Theory.Pop(s.decisionLevel() - level)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
	if s.thead > bound {
		s.thead = bound
	}
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > rescaleLimit {
		for i := range s.activity {
			s.activity[i] /= rescaleLimit
		}
		s.varInc /= rescaleLimit
		s.order.rebuild()
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.clauseInc
	if c.activity > rescaleLimit {
		for _, lc := range s.learnts {
			lc.activity /= rescaleLimit
		}
		s.clauseInc /= rescaleLimit
	}
}

// analyze performs first-UIP conflict analysis. It returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	// learnt is scratch reused across conflicts; recordLearnt copies it.
	learnt := append(s.learntBuf[:0], LitUndef) // slot 0 for the asserting literal
	counter := 0
	p := LitUndef
	index := len(s.trail) - 1
	curLevel := s.decisionLevel()

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
		if confl == nil {
			panic("sat: internal error: missing reason during conflict analysis")
		}
	}
	learnt[0] = p.Not()

	// minimize may drop literals whose seen flags must still be cleared, so
	// snapshot the full set first (into reusable scratch).
	collected := append(s.collectBuf[:0], learnt...)
	s.collectBuf = collected
	s.minimize(&learnt)
	s.learntBuf = learnt

	// Find backtrack level: the max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxIdx := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxIdx].Var()] {
				maxIdx = i
			}
		}
		learnt[1], learnt[maxIdx] = learnt[maxIdx], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range collected {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// minimize removes literals whose reason clause is fully covered by the
// remaining learnt literals (local clause minimization).
func (s *Solver) minimize(learnt *[]Lit) {
	lits := *learnt
	out := lits[:1]
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		r := s.reason[l.Var()]
		if r == nil {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range r.lits {
			if q == l.Not() {
				continue
			}
			if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	*learnt = out
}

// recordLearnt attaches a learnt clause and enqueues its asserting literal.
func (s *Solver) recordLearnt(learnt []Lit) {
	var proofID uint64
	if s.opts.Proof != nil {
		proofID = s.opts.Proof.LogLearnt(learnt)
	}
	if len(learnt) == 1 {
		if !s.enqueue(learnt[0], nil) {
			s.unsat = true
		}
		return
	}
	c := s.allocClause(learnt)
	c.id = proofID
	c.learnt = true
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.bumpClause(c)
	if !s.enqueue(learnt[0], c) {
		panic("sat: internal error: asserting literal already false")
	}
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active and all binary clauses.
func (s *Solver) reduceDB() {
	sort.Sort(byActivityDesc(s.learnts))
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if c.len() == 2 || i < limit || s.isReason(c) {
			kept = append(kept, c)
			continue
		}
		if s.opts.Proof != nil && c.id != 0 {
			s.opts.Proof.LogDelete(c.id)
		}
		s.detach(c)
	}
	s.learnts = kept
}

// byActivityDesc sorts learnt clauses by descending activity without the
// reflection overhead of sort.Slice.
type byActivityDesc []*clause

func (a byActivityDesc) Len() int           { return len(a) }
func (a byActivityDesc) Less(i, j int) bool { return a[i].activity > a[j].activity }
func (a byActivityDesc) Swap(i, j int)      { a[i], a[j] = a[j], a[i] }

func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

// pickBranchLit selects the next decision literal, or LitUndef when all
// variables are assigned.
func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == lUndef {
			return NewLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// luby computes the Luby restart sequence value for 0-based index x:
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
func luby(x int64) int64 {
	// Find the finite subsequence that contains index x and its size.
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// handleConflict runs conflict analysis and backtracking for a conflicting
// clause. It returns false when the formula is proven unsat.
func (s *Solver) handleConflict(confl *clause) bool {
	s.stats.Conflicts++
	if s.decisionLevel() == 0 {
		// A level-0 conflict is permanent: clauses are never retracted, so
		// the instance stays unsat for every future incremental call.
		s.unsat = true
		return false
	}
	learnt, btLevel := s.analyze(confl)
	s.cancelUntil(btLevel)
	s.recordLearnt(learnt)
	if s.unsat {
		return false
	}
	s.decayActivities()
	return true
}

func (s *Solver) decayActivities() {
	s.varInc *= varActivityDecay
	s.clauseInc *= clauseActivityDecay
}

// theoryConflictClause converts a theory explanation (literals that are all
// true) into a conflicting clause of their negations and dispatches it. It
// returns false when the formula is proven unsat.
func (s *Solver) theoryConflictClause(expl []Lit) bool {
	lits := make([]Lit, len(expl))
	maxLevel := 0
	for i, l := range expl {
		if s.value(l) != lTrue {
			panic("sat: theory explanation contains non-true literal")
		}
		lits[i] = l.Not()
		if lv := int(s.level[l.Var()]); lv > maxLevel {
			maxLevel = lv
		}
	}
	if s.opts.Proof != nil {
		// Logged before dispatch so conflict analysis can resolve with the
		// lemma: any clause learnt from this conflict is RUP only against a
		// database that already contains it.
		s.opts.Proof.LogTheoryLemma(lits)
	}
	if maxLevel == 0 {
		// All explaining bounds were asserted at level 0 and are permanent.
		s.unsat = true
		return false
	}
	// The conflict may live entirely below the current decision level;
	// backtrack there first so analyze sees a current-level conflict.
	s.cancelUntil(maxLevel)
	return s.handleConflict(&clause{lits: lits})
}

// pollLimits polls the Stop hook every stopPollInterval propagations. It
// returns nil when the search may continue.
func (s *Solver) pollLimits() error {
	if s.opts.Stop != nil && s.stats.Propagations >= s.nextPoll {
		s.nextPoll = s.stats.Propagations + stopPollInterval
		return s.opts.Stop()
	}
	return nil
}

// newDecisionLevel opens a fresh decision level, keeping the theory solver's
// scope stack aligned with the SAT trail.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	if s.opts.Theory != nil {
		s.opts.Theory.Push()
	}
}

// Backtrack undoes every decision and assumption, returning the solver (and
// the theory solver mirroring its scopes) to decision level 0. After a
// StatusSat answer the satisfying assignment — and any theory-side model —
// stays in place until Backtrack is called, so incremental callers extract
// the model first, then Backtrack, then add clauses for the next
// SolveAssuming.
func (s *Solver) Backtrack() { s.cancelUntil(0) }

// ResetPhases restores every variable's saved phase to the default polarity
// (false). Model-enumeration loops (blocking-clause candidate search) call
// this between Solves on a persistent instance: phase saving otherwise
// steers each re-solve to a near neighbor of the just-blocked model, which
// can multiply the number of enumeration rounds. Learnt clauses and
// activities are untouched.
func (s *Solver) ResetPhases() {
	for i := range s.polarity {
		s.polarity[i] = true
	}
}

// FinalConflict returns the subset of the assumptions passed to the last
// SolveAssuming call found jointly unsatisfiable with the clause set, the
// directly falsified assumption first. It returns nil when the last answer
// was not an assumption-driven StatusUnsat — in particular when the clause
// set is unsatisfiable regardless of assumptions. The slice is overwritten
// by the next SolveAssuming call.
func (s *Solver) FinalConflict() []Lit {
	if len(s.conflict) == 0 {
		return nil
	}
	return s.conflict
}

// analyzeFinal computes the final conflict for assumption p that was found
// false at its decision point: p plus every earlier assumption whose
// decision participates in deriving ¬p (MiniSat's analyzeFinal). The result
// lands in s.conflict.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflict = append(s.conflict[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = true
	bound := int(s.trailLim[0])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == nil {
			// A decision above level 0 can only be an assumption (dummy
			// levels for already-true assumptions enqueue nothing).
			s.conflict = append(s.conflict, s.trail[i])
		} else {
			for _, q := range r.lits {
				if q.Var() != v && s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// Solve runs the CDCL search and returns the status. On StatusSat the model
// is available through Value. StatusUnknown is always accompanied by a
// non-nil error saying why the search stopped early (budget exhaustion, a
// Stop-hook cancellation, or a theory-side abort). It is SolveAssuming with
// no assumptions.
func (s *Solver) Solve() (Status, error) { return s.SolveAssuming() }

// SolveAssuming runs the CDCL search under the given assumption literals,
// which are decided (in order) before any free decision. StatusUnsat means
// the clauses are unsatisfiable together with the assumptions;
// FinalConflict then names the responsible assumption subset (nil when the
// clauses alone are unsat). Clauses and learnt clauses persist across calls,
// which is what makes repeated calls incremental: add clauses between calls
// (after Backtrack) and flip assumptions per call.
func (s *Solver) SolveAssuming(assumps ...Lit) (Status, error) {
	s.cancelUntil(0)
	s.conflict = s.conflict[:0]
	if s.unsat {
		return StatusUnsat, nil
	}
	for _, l := range assumps {
		if l == LitUndef || int(l.Var()) >= s.nVars {
			return StatusUnknown, fmt.Errorf("sat: assumption references unknown literal %v", l)
		}
	}
	// Baseline the per-call budget and the Stop-poll cursor against the
	// cumulative counters (see the field comments).
	s.baseConflicts = s.stats.Conflicts
	s.nextPoll = s.stats.Propagations
	if s.opts.Stop != nil {
		// Poll once up front so an already-expired deadline aborts before
		// any search work, however large the instance.
		if err := s.opts.Stop(); err != nil {
			return StatusUnknown, err
		}
	}
	if confl := s.propagate(); confl != nil {
		s.unsat = true
		return StatusUnsat, nil
	}
	if expl := s.theoryFeed(); expl != nil {
		// Top-level theory conflict over permanent level-0 bounds. The lemma
		// still goes into the proof: its literals are all false at level 0,
		// so the checker derives the contradiction by propagation.
		if s.opts.Proof != nil {
			lits := make([]Lit, len(expl))
			for i, l := range expl {
				lits[i] = l.Not()
			}
			s.opts.Proof.LogTheoryLemma(lits)
		}
		s.unsat = true
		return StatusUnsat, nil
	}
	if s.opts.Theory != nil {
		s.stats.TheoryChecks++
		expl, err := s.opts.Theory.Check(false)
		if err != nil {
			return StatusUnknown, err
		}
		if expl != nil {
			if !s.theoryConflictClause(expl) {
				return StatusUnsat, nil
			}
		}
	}

	s.maxLearnts = float64(len(s.clauses))/3 + 1000
	restartNum := int64(0)
	conflictsUntilRestart := luby(restartNum) * lubyUnit
	s.budget = s.opts.MaxConflicts

	for {
		if err := s.pollLimits(); err != nil {
			return StatusUnknown, err
		}
		confl := s.propagate()
		if confl == nil {
			if expl := s.theoryFeed(); expl != nil {
				if !s.theoryConflictClause(expl) {
					return StatusUnsat, nil
				}
				continue
			}
			if s.opts.Theory != nil {
				s.stats.TheoryChecks++
				expl, err := s.opts.Theory.Check(false)
				if err != nil {
					return StatusUnknown, err
				}
				if expl != nil {
					if !s.theoryConflictClause(expl) {
						return StatusUnsat, nil
					}
					continue
				}
			}
		}
		if confl != nil {
			if !s.handleConflict(confl) {
				return StatusUnsat, nil
			}
			if s.budget > 0 && s.stats.Conflicts-s.baseConflicts >= s.budget {
				return StatusUnknown, ErrBudget
			}
			if s.opts.Stop != nil {
				if err := s.opts.Stop(); err != nil {
					return StatusUnknown, err
				}
			}
			conflictsUntilRestart--
			continue
		}

		if conflictsUntilRestart <= 0 {
			s.stats.Restarts++
			restartNum++
			conflictsUntilRestart = luby(restartNum) * lubyUnit
			s.cancelUntil(0)
			continue
		}
		if float64(len(s.learnts)) > s.maxLearnts {
			s.reduceDB()
			s.maxLearnts *= 1.2
		}

		// Decide the next pending assumption; dummy levels keep decision
		// levels aligned with assumption indices when an assumption is
		// already implied.
		next := LitUndef
		for next == LitUndef && s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel()
			case lFalse:
				s.analyzeFinal(p)
				s.cancelUntil(0)
				return StatusUnsat, nil
			default:
				next = p
			}
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				// Full assignment: run the final theory check.
				if s.opts.Theory != nil {
					s.stats.TheoryChecks++
					expl, err := s.opts.Theory.Check(true)
					if err != nil {
						return StatusUnknown, err
					}
					if expl != nil {
						if !s.theoryConflictClause(expl) {
							return StatusUnsat, nil
						}
						continue
					}
				}
				return StatusSat, nil
			}
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if !s.enqueue(next, nil) {
			panic("sat: internal error: decision literal already assigned")
		}
	}
}
