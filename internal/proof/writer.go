package proof

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"segrid/internal/cnf"
	"segrid/internal/numeric"
	"segrid/internal/sat"
)

// Writer streams proof records as the solver runs. It implements the
// sat.ProofLogger hook for the clausal records and exposes the theory-side
// definitions to the SMT encoder. One Writer captures the lifetime of one
// solver: under FreshPerCheck every rebuilt encoder contributes its own
// Restart-delimited segment to the same stream.
//
// Write errors are sticky: the first one is remembered, later calls become
// no-ops, and the error surfaces from Flush/Close/Err. Solving is never
// aborted by a failing proof sink.
type Writer struct {
	w    *bufio.Writer
	f    *os.File
	path string
	tmp  string // non-empty for CreateAtomic writers: the staging file
	err  error

	nextID uint64
	checks uint64

	// staged Farkas coefficients for the next theory lemma: the SMT theory
	// adapter stages them when the simplex reports a conflict, immediately
	// before the SAT core logs the lemma clause built from that conflict.
	staged []numeric.Q

	// pending are the kernel-derived definitional clauses a DefineGate or
	// DefineCard call promised; the next LogInput calls must match them in
	// order. Matching clauses are swallowed (the provenance record already
	// claims their ids, and the checker re-derives them); a divergent clause
	// is an encoder bug and poisons the stream — see LogInput.
	pending    [][]sat.Lit
	pendingOff int
	defClauses uint64
	mismatches uint64

	// arena backs the kernel derivations staged in pending, so matching the
	// encoder's clauses costs no per-clause allocation. Its views die on the
	// next derivation, which is safe exactly when pending has drained — the
	// normal flow, since the encoder adds every definitional clause right
	// after its Define call. Define calls arriving with clauses still pending
	// (an encoder bug, about to be flagged) fall back to allocating. The
	// arena is pooled across Writers (fetched lazily, returned on Close):
	// synthesis sweeps run one Writer per solve, and re-growing the buffers
	// to circuit size every solve is measurable GC load on small scenarios.
	arena *cnf.Arena

	enc encoder
}

var _ sat.ProofLogger = (*Writer)(nil)

// NewWriter starts a proof stream on w. The buffer is sized for the common
// certificate: a few records' slack above the kilobytes the fig4a-scale
// scenarios emit — a per-solve Writer with a much larger buffer shows up as
// allocation overhead on sub-millisecond workloads.
func NewWriter(w io.Writer) *Writer {
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<14)}
	_, pw.err = pw.w.WriteString(magic)
	return pw
}

// Path returns the file path backing the stream, or "" for an in-memory
// writer.
func (w *Writer) Path() string { return w.path }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) emit(rec *Record) {
	if w.err != nil {
		return
	}
	w.enc.buf = w.enc.buf[:0]
	w.enc.record(rec)
	_, w.err = w.w.Write(w.enc.buf)
}

// Restart marks the start of a fresh solver instance.
func (w *Writer) Restart() {
	w.flushPending()
	w.emit(&Record{Kind: KindRestart})
}

// flushPending handles definitional clauses that were promised but never
// added: the id range the provenance record claimed is partly unused, so the
// stream is poisoned with a sticky error (and would also fail checking — a
// later clause would collide with a claimed id). The encoder adds every
// kernel clause immediately after its Define call, so this fires only on an
// encoder bug.
func (w *Writer) flushPending() {
	if w.pendingOff < len(w.pending) {
		w.mismatches += uint64(len(w.pending) - w.pendingOff)
		if w.err == nil {
			w.err = fmt.Errorf("proof: encoder added %d fewer clauses than its definitional records promised", len(w.pending)-w.pendingOff)
		}
	}
	w.pending = w.pending[:0]
	w.pendingOff = 0
}

// arenaPool recycles derivation arenas across Writers; see Writer.arena.
var arenaPool = sync.Pool{New: func() any { return new(cnf.Arena) }}

// kernelArena returns the Writer's derivation arena, fetching one from the
// pool on first use.
func (w *Writer) kernelArena() *cnf.Arena {
	if w.arena == nil {
		w.arena = arenaPool.Get().(*cnf.Arena)
	}
	return w.arena
}

// expect stages kernel-derived clauses for comparison against the encoder's
// upcoming AddClause calls. In the normal drained case pending aliases the
// derivation's view slice outright (clipped, so a later append cannot write
// through into it) — copying tens of thousands of clause headers per large
// cardinality circuit showed up as GC pressure in the proof-overhead column.
func (w *Writer) expect(clauses [][]sat.Lit) {
	clauses = clauses[:len(clauses):len(clauses)]
	if w.pendingOff == len(w.pending) {
		w.pending = clauses
		w.pendingOff = 0
		return
	}
	w.pending = append(w.pending, clauses...)
}

// DefineGate records the provenance of a Tseitin gate: out is the fresh
// output variable of shape gate over the input literals. The definitional
// clauses the cnf kernel derives are claimed (ids allocated, nothing
// serialized) and must be the next clauses handed to LogInput.
func (w *Writer) DefineGate(gate cnf.Gate, out sat.Var, inputs []sat.Lit) {
	w.emit(&Record{Kind: KindGateDef, ID: w.nextID + 1, Gate: gate, Var: int(out), Lits: inputs})
	if w.pendingOff == len(w.pending) {
		w.expect(w.kernelArena().GateClauses(gate, sat.PosLit(out), inputs))
	} else {
		w.expect(cnf.GateClauses(nil, gate, sat.PosLit(out), inputs))
	}
}

// DefineCard records the provenance of a cardinality circuit Σ lits ≤ k,
// with firstFresh the first of its consecutive register variables and guard
// the scope guard (sat.LitUndef when unguarded). Bounds that emit no clauses
// (k ≥ len(lits)) are not recorded, mirroring the encoder.
func (w *Writer) DefineCard(lits []sat.Lit, k int, firstFresh sat.Var, guard sat.Lit) {
	var clauses [][]sat.Lit
	if w.pendingOff == len(w.pending) {
		clauses = w.kernelArena().AtMostK(lits, k, firstFresh, guard)
	} else {
		clauses = cnf.AtMostK(nil, lits, k, firstFresh, guard)
	}
	if len(clauses) == 0 {
		return
	}
	w.emit(&Record{Kind: KindCardDef, ID: w.nextID + 1, K: k, Var: int(firstFresh), Guard: guard, Lits: lits})
	w.expect(clauses)
}

// DefineSlack records simplex variable v as the linear combination terms of
// earlier simplex variables.
func (w *Writer) DefineSlack(v int, terms []Term) {
	w.emit(&Record{Kind: KindSlackDef, Var: v, Terms: terms})
}

// DefineAtom records the theory meaning of SAT variable v: the positive
// literal asserts slack ≤ pos, the negative literal slack ≥ neg.
func (w *Writer) DefineAtom(v int, slack int, pos, neg numeric.Delta) {
	w.emit(&Record{Kind: KindAtomDef, Var: v, Slack: slack, Pos: pos, Neg: neg})
}

// StageFarkas supplies the Farkas coefficients justifying the next theory
// lemma; the slice is copied.
func (w *Writer) StageFarkas(coeffs []numeric.Q) {
	w.staged = append(w.staged[:0], coeffs...)
}

// LogInput records a problem clause exactly as handed to AddClause. While
// definitional clauses from a DefineGate/DefineCard call are pending, the
// clause is compared against the kernel derivation instead: a match is
// swallowed (its id was claimed by the provenance record; the checker
// re-derives the clause), a mismatch is an encoder bug and is logged as a
// KindDerived record — a definitional clause over a fresh variable is never
// RUP, so the checker rejects the stream loudly rather than trusting a
// clause the kernel cannot reproduce.
func (w *Writer) LogInput(lits []sat.Lit) {
	w.nextID++
	if w.pendingOff < len(w.pending) {
		want := w.pending[w.pendingOff]
		w.pendingOff++
		if litsEqual(lits, want) {
			w.defClauses++
			return
		}
		w.mismatches++
		w.emit(&Record{Kind: KindDerived, ID: w.nextID, Lits: lits})
		return
	}
	w.emit(&Record{Kind: KindInput, ID: w.nextID, Lits: lits})
}

func litsEqual(a, b []sat.Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DefClauses returns how many definitional clauses were matched against the
// kernel and swallowed from the stream.
func (w *Writer) DefClauses() uint64 { return w.defClauses }

// DefMismatches returns how many clauses diverged from their kernel
// derivation (or were promised and never added). Nonzero means an encoder
// bug; the stream is poisoned so checking fails rather than silently
// trusting the divergent clauses.
func (w *Writer) DefMismatches() uint64 { return w.mismatches }

// LogLearnt records a learnt clause and returns its id for later deletion.
func (w *Writer) LogLearnt(lits []sat.Lit) uint64 {
	w.nextID++
	w.emit(&Record{Kind: KindDerived, ID: w.nextID, Lits: lits})
	return w.nextID
}

// LogTheoryLemma records a theory-conflict clause together with the staged
// Farkas coefficients and returns its id. When no coefficients were staged
// (or the count mismatches), the lemma is written without a certificate and
// the checker will reject the proof — a missing justification must never
// pass silently.
func (w *Writer) LogTheoryLemma(lits []sat.Lit) uint64 {
	w.nextID++
	rec := &Record{Kind: KindTheoryLemma, ID: w.nextID, Lits: lits}
	if len(w.staged) == len(lits) {
		rec.Coeffs = append([]numeric.Q(nil), w.staged...)
	} else {
		rec.Coeffs = make([]numeric.Q, len(lits)) // zero coefficients: invalid
	}
	w.staged = w.staged[:0]
	w.emit(rec)
	return w.nextID
}

// LogDelete records the removal of a clause from the active set.
func (w *Writer) LogDelete(id uint64) {
	w.emit(&Record{Kind: KindDelete, ID: id})
}

// EndUnsat closes one UNSAT answer: the active clauses plus the given
// assumption literals (the live scope selectors; empty for an absolute
// UNSAT) are contradictory by unit propagation. It returns the 1-based
// index of this check within the stream.
func (w *Writer) EndUnsat(assumps []sat.Lit) uint64 {
	w.flushPending()
	w.checks++
	w.emit(&Record{Kind: KindUnsat, Check: w.checks, Lits: append([]sat.Lit(nil), assumps...)})
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.checks
}

// Checks returns how many UNSAT answers have been certified so far.
func (w *Writer) Checks() uint64 { return w.checks }

// Flush forces buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Abort poisons the writer: later records are dropped and Close reports the
// given error instead of publishing. For CreateAtomic writers nothing ever
// appears at the publication path — the staging file is removed — which is
// how losing cube workers retract certificates they were cancelled in the
// middle of writing.
func (w *Writer) Abort(err error) {
	if w.err == nil {
		if err == nil {
			err = errors.New("proof: stream aborted")
		}
		w.err = err
	}
}

// Close flushes the stream and closes the backing file, if any. It returns
// the first error seen over the writer's lifetime.
func (w *Writer) Close() error {
	w.flushPending()
	if w.arena != nil {
		// pending aliases the arena's view slice; drop it before the arena
		// can be handed to another Writer.
		w.pending = nil
		w.pendingOff = 0
		arenaPool.Put(w.arena)
		w.arena = nil
	}
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	w.finalize()
	return w.err
}

// Handle points a Result at its certificate: the proof stream (by path when
// file-backed) and the 1-based Unsat check index within it.
type Handle struct {
	// Path is the proof file, or "" when the stream is not file-backed.
	Path string
	// Check is the 1-based index of the Unsat record certifying this
	// answer.
	Check uint64
}
