package proof

import (
	"fmt"
	"os"
	"path/filepath"

	"segrid/internal/sat"
)

// trimTracer records, during a full checking replay, which earlier records
// each record's verification rested on: RUP conflicts are walked back
// through the propagation reasons to the clauses involved, install-time
// purges of root-false literals are charged to the records that made them
// false, Farkas lemmas to the atom and slack definitions they combine, and
// everything after a permanent root conflict to the records that established
// it. The backward pass then keeps exactly the records reachable from the
// Unsat answers — the DRAT-trim idea (Wetzler, Heule & Hunt, SAT 2014)
// adapted to this stream's definition and theory records.
type trimTracer struct {
	// recOfClause maps a clause id to the index of the record that installed
	// it (ids are unique across the stream, including re-derived
	// definitional clauses, which map to their provenance record).
	recOfClause map[uint64]int
	// deps[i] lists the record indices record i's verification depends on.
	deps [][]int
	// atomRec and slackRec map the current segment's atom/slack definitions
	// to their record index.
	atomRec  map[int]int
	slackRec map[int]int
	// rootDeps, once the segment hits a permanent root conflict, holds the
	// record indices that established it.
	rootDeps []int

	// varMark/markGen give addConflictDeps an O(1) visited set without
	// allocating one per conflict.
	varMark []uint32
	markGen uint32
	stack   []sat.Lit
}

func newTrimTracer() *trimTracer {
	return &trimTracer{
		recOfClause: make(map[uint64]int),
		atomRec:     make(map[int]int),
		slackRec:    make(map[int]int),
	}
}

// resetSegment clears per-segment definition maps at a Restart (clause ids
// are stream-global and stay).
func (t *trimTracer) resetSegment() {
	t.atomRec = make(map[int]int)
	t.slackRec = make(map[int]int)
	t.rootDeps = nil
}

func (t *trimTracer) noteInstall(c *checker, id uint64) {
	t.recOfClause[id] = c.recIdx
}

func (t *trimTracer) noteAtom(c *checker, v int) {
	if r, ok := t.atomRec[v]; ok {
		t.deps[c.recIdx] = append(t.deps[c.recIdx], r)
	}
}

func (t *trimTracer) noteSlack(c *checker, v int) {
	if r, ok := t.slackRec[v]; ok {
		t.deps[c.recIdx] = append(t.deps[c.recIdx], r)
	}
}

func (t *trimTracer) noteEntailedByRoot(c *checker) {
	t.deps[c.recIdx] = append(t.deps[c.recIdx], t.rootDeps...)
}

func (t *trimTracer) noteRootConflict(c *checker, conflict *ckClause, rootLit sat.Lit) {
	if t.rootDeps != nil {
		return
	}
	mark := len(t.deps[c.recIdx])
	t.addConflictDeps(c, conflict, rootLit)
	t.rootDeps = append([]int{c.recIdx}, t.deps[c.recIdx][mark:]...)
}

// addConflictDeps walks a conflict back through the propagation reasons: the
// conflicting clause (or a root-true literal) seeds the walk, every visited
// clause contributes its installing record, and every literal of a visited
// clause is chased through its reason. Literals assumed by the enclosing RUP
// check have no reason and terminate the walk.
func (t *trimTracer) addConflictDeps(c *checker, conflict *ckClause, rootLit sat.Lit) {
	t.markGen++
	for len(t.varMark) < len(c.assigns) {
		t.varMark = append(t.varMark, 0)
	}
	t.stack = t.stack[:0]
	addClause := func(cl *ckClause) {
		if r, ok := t.recOfClause[cl.id]; ok {
			t.deps[c.recIdx] = append(t.deps[c.recIdx], r)
		}
		t.stack = append(t.stack, cl.lits...)
	}
	if conflict != nil {
		addClause(conflict)
	}
	if rootLit != sat.LitUndef {
		t.stack = append(t.stack, rootLit)
	}
	for len(t.stack) > 0 {
		l := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		v := l.Var()
		if int(v) >= len(t.varMark) || t.varMark[v] == t.markGen {
			continue
		}
		t.varMark[v] = t.markGen
		if r := c.reasons[v]; r != nil {
			addClause(r)
		}
	}
}

// TrimStats reports the effect of a trimming pass.
type TrimStats struct {
	RecordsBefore, RecordsAfter int
	BytesBefore, BytesAfter     int64
}

// Ratio returns the size reduction factor (before/after), or 0 when the
// trimmed stream is empty.
func (s TrimStats) Ratio() float64 {
	if s.BytesAfter == 0 {
		return 0
	}
	return float64(s.BytesBefore) / float64(s.BytesAfter)
}

// Trim runs a full checking replay over the records with dependency
// tracking, then walks backward keeping only the records reachable from the
// Unsat answers (Restart markers always stay; a Delete stays only when the
// clause it removes does). The input must be a valid proof — Trim verifies
// it as it replays and fails on the first invalid record.
//
// The trimmed stream verifies on its own: every kept record's justification
// — RUP propagation chains, install-time purges, Farkas definitions, root
// conflicts — is closed under the kept set.
func Trim(recs []*Record) ([]*Record, *Report, error) {
	tr := newTrimTracer()
	c := newChecker()
	c.tr = tr
	c.reset() // rewire the tracer's segment state created before c.tr was set
	rep := &Report{}
	for i, rec := range recs {
		c.recIdx = i
		tr.deps = append(tr.deps, nil)
		rep.Records++
		if err := c.apply(rec, rep); err != nil {
			return nil, nil, fmt.Errorf("proof: record %d (%v): %w", i+1, rec.Kind, err)
		}
	}
	need := make([]bool, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		switch recs[i].Kind {
		case KindUnsat, KindRestart:
			need[i] = true
		}
		if !need[i] {
			continue
		}
		for _, d := range tr.deps[i] {
			need[d] = true
		}
	}
	out := make([]*Record, 0, len(recs))
	for i, rec := range recs {
		if rec.Kind == KindDelete {
			// Keep the deletion only when the clause it removes survives.
			if r, ok := tr.recOfClause[rec.ID]; ok && need[r] {
				out = append(out, rec)
			}
			continue
		}
		if need[i] {
			out = append(out, rec)
		}
	}
	return out, rep, nil
}

// TrimFile trims the certificate at path in place (via a temporary file and
// rename) and reports the size change. The trimmed stream is re-verified
// before it replaces the original; a verification failure leaves the
// original untouched.
func TrimFile(path string) (*TrimStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("proof: %w", err)
	}
	recs, err := ReadAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	before, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("proof: %w", err)
	}
	trimmed, _, err := Trim(recs)
	if err != nil {
		return nil, err
	}
	// The temp file lives next to the certificate so the rename stays on one
	// filesystem.
	tmp, err := Stage(filepath.Dir(path), ".trim-", "")
	if err != nil {
		return nil, fmt.Errorf("proof: %w", err)
	}
	tmpName := tmp.Name()
	if err := WriteAll(tmp, trimmed); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, fmt.Errorf("proof: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return nil, fmt.Errorf("proof: %w", err)
	}
	// Independent re-verification of the trimmed stream before it replaces
	// the original: a trimming bug must never destroy a valid certificate.
	if _, err := CheckFile(tmpName); err != nil {
		os.Remove(tmpName)
		return nil, fmt.Errorf("proof: trimmed stream failed verification: %w", err)
	}
	after, err := os.Stat(tmpName)
	if err != nil {
		os.Remove(tmpName)
		return nil, fmt.Errorf("proof: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return nil, fmt.Errorf("proof: %w", err)
	}
	return &TrimStats{
		RecordsBefore: len(recs),
		RecordsAfter:  len(trimmed),
		BytesBefore:   before.Size(),
		BytesAfter:    after.Size(),
	}, nil
}
