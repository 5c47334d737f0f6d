// Package proof implements machine-checkable UNSAT certificates for the
// CDCL(T) stack: a DRAT-style clausal proof log for the propositional core
// (Wetzler, Heule & Hunt, "DRAT-trim", SAT 2014) extended with
// Farkas-coefficient theory lemmas for linear real arithmetic (Dutertre &
// de Moura, CAV 2006) and scope-selector annotations so the incremental
// solver's assumption-relative UNSAT answers are expressible.
//
// The package has two halves. The Writer streams records as the solver runs
// and is wired into package sat through the ProofLogger hook and into
// package smt for the theory-side definitions; when no writer is installed
// the solver pays a single nil check per logging site. The Checker replays
// the stream with its own unit-propagation engine and exact rational
// arithmetic from internal/numeric — it deliberately shares no search code
// with the solver, so a bug in the solver's propagation, learning or simplex
// cannot also hide in the verification path.
//
// Format version 2 closes the encoding trust gap: Tseitin gates and
// cardinality circuits travel as provenance records (KindGateDef,
// KindCardDef) instead of opaque input clauses, and the checker re-derives
// every definitional clause through the shared internal/cnf kernel. A
// certificate can no longer smuggle in a wrong "definitional" clause — the
// trusted base shrinks to the kernel, internal/numeric, and the genuinely
// asserted problem clauses.
package proof

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"segrid/internal/cnf"
	"segrid/internal/numeric"
	"segrid/internal/sat"
)

// magic identifies a segrid proof stream (format version 2).
const magic = "SGPF2\n"

// magicPrefix is shared by every format version; a stream that starts with
// it but not with magic is a version mismatch, not corruption.
const magicPrefix = "SGPF"

// ErrVersion reports a well-formed segrid proof stream written in a format
// version this reader does not speak. Tools distinguish it from corruption
// (errors.Is) so version skew fails loudly with its own exit code.
var ErrVersion = errors.New("certificate version mismatch")

// Kind discriminates proof records.
type Kind uint8

const (
	// KindRestart marks a fresh solver instance: the checker discards all
	// clauses, definitions and derived facts. Emitted once per encoder, so
	// FreshPerCheck ablation runs produce one segment per check.
	KindRestart Kind = iota + 1
	// KindSlackDef defines a simplex slack variable as a linear combination
	// of previously introduced simplex variables.
	KindSlackDef
	// KindAtomDef binds a SAT variable to its theory meaning: the positive
	// literal asserts slack ≤ Pos, the negative literal asserts slack ≥ Neg.
	KindAtomDef
	// KindInput is a problem clause, recorded as handed to the solver. Input
	// clauses are trusted: they are the formula whose unsatisfiability the
	// proof establishes.
	KindInput
	// KindDerived is a clause the solver learnt; the checker verifies it by
	// reverse unit propagation (RUP). The solver learns only RUP clauses,
	// so the checker has no RAT fallback.
	KindDerived
	// KindTheoryLemma is a clause ¬b₁ ∨ … ∨ ¬bₙ whose literals negate
	// asserted bounds, justified by Farkas coefficients: Coeffs[i] scales
	// the bound asserted by Lits[i].Not(), and the combination Σλᵢ·boundᵢ
	// must cancel all variables while its right-hand side is negative.
	KindTheoryLemma
	// KindDelete removes a clause from the active set (learnt-clause
	// reduction); later RUP checks must not rely on it.
	KindDelete
	// KindUnsat asserts that the active clauses together with the given
	// assumption literals (the live scope selectors, empty for an absolute
	// UNSAT) are contradictory by unit propagation alone.
	KindUnsat
	// KindGateDef records the provenance of a Tseitin definition: Var is the
	// fresh output variable, Gate the shape, Lits the input literals. The
	// record claims clause ids ID … ID+n−1 for the definitional clauses the
	// cnf kernel derives from it; the clauses themselves are not serialized —
	// the checker re-derives and installs them, refusing the record unless
	// the output variable is fresh (a definitional extension must not
	// constrain existing variables).
	KindGateDef
	// KindCardDef records the provenance of a sequential-counter cardinality
	// circuit asserting Σ Lits ≤ K, with Var the first of the circuit's
	// consecutive fresh register variables and Guard the scope guard literal
	// (LitUndef when unguarded). Like KindGateDef it claims ID … ID+n−1 and
	// serializes no clauses; the checker re-derives them and requires every
	// register variable to be fresh.
	KindCardDef
)

func (k Kind) String() string {
	switch k {
	case KindRestart:
		return "restart"
	case KindSlackDef:
		return "slackdef"
	case KindAtomDef:
		return "atomdef"
	case KindInput:
		return "input"
	case KindDerived:
		return "derived"
	case KindTheoryLemma:
		return "lemma"
	case KindDelete:
		return "delete"
	case KindUnsat:
		return "unsat"
	case KindGateDef:
		return "gatedef"
	case KindCardDef:
		return "carddef"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Term is one summand of a slack definition: Coeff·Var over simplex
// variables.
type Term struct {
	Var   int
	Coeff numeric.Q
}

// Record is one step of a proof stream. Which fields are meaningful depends
// on Kind; unused fields are zero.
type Record struct {
	Kind Kind

	// ID numbers input, derived and theory-lemma clauses; Delete references
	// it. A GateDef/CardDef record claims the contiguous id range starting
	// at ID for its derived clauses. IDs are unique across the whole stream
	// (they are not reset by a restart).
	ID uint64

	// Lits is the clause body (Input/Derived/TheoryLemma), the assumption
	// set (Unsat), the gate inputs (GateDef) or the counted literals
	// (CardDef).
	Lits []sat.Lit

	// Coeffs are the Farkas coefficients of a theory lemma, parallel to
	// Lits.
	Coeffs []numeric.Q

	// Var is the defined simplex variable (SlackDef), the SAT variable
	// (AtomDef), the gate output variable (GateDef) or the first fresh
	// register variable (CardDef).
	Var int

	// Gate is the Tseitin gate shape (GateDef).
	Gate cnf.Gate

	// K is the cardinality bound (CardDef); it may be negative, in which
	// case the circuit is the single (guarded) empty clause.
	K int

	// Guard is the scope guard literal of a cardinality circuit (CardDef),
	// or sat.LitUndef when the circuit is unguarded.
	Guard sat.Lit

	// Slack is the simplex variable an atom bounds (AtomDef).
	Slack int

	// Terms is the defining linear combination (SlackDef).
	Terms []Term

	// Pos and Neg are the atom's upper/lower bounds (AtomDef).
	Pos, Neg numeric.Delta

	// Check is the 1-based index of an Unsat record within the stream.
	Check uint64
}

// cardSeqCounter is the CardDef encoding byte of the sequential counter,
// the one encoding the cnf kernel derives. The byte stays on the wire so
// format-2 streams keep their layout; any other value is rejected.
const cardSeqCounter byte = 1

// Rational wire tags: a machine-word rational travels as two varints, a
// promoted big.Rat falls back to its canonical RatString text.
const (
	ratSmall byte = 0
	ratBig   byte = 1
)

// encoder serializes records into a byte buffer. Rationals on the numeric.Q
// fast path travel as a signed-varint numerator plus uvarint denominator —
// two ints instead of formatting text, which dominated the proof-logging
// overhead on verification workloads (BENCH_4) — with RatString text as the
// fallback for promoted big.Rats.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) lit(l sat.Lit)    { e.uvarint(uint64(uint32(l))) }
func (e *encoder) rat(q numeric.Q) {
	if s, ok := q.Small(); ok {
		e.byte(ratSmall)
		e.varint(s.Num)
		e.uvarint(uint64(s.Den))
		return
	}
	e.byte(ratBig)
	e.bytes([]byte(q.RatString()))
}
func (e *encoder) delta(d numeric.Delta) {
	e.rat(d.StdQ())
	e.rat(d.InfQ())
}

func (e *encoder) record(r *Record) {
	e.byte(byte(r.Kind))
	switch r.Kind {
	case KindRestart:
	case KindSlackDef:
		e.uvarint(uint64(r.Var))
		e.uvarint(uint64(len(r.Terms)))
		for _, t := range r.Terms {
			e.uvarint(uint64(t.Var))
			e.rat(t.Coeff)
		}
	case KindAtomDef:
		e.uvarint(uint64(r.Var))
		e.uvarint(uint64(r.Slack))
		e.delta(r.Pos)
		e.delta(r.Neg)
	case KindInput, KindDerived:
		e.uvarint(r.ID)
		e.uvarint(uint64(len(r.Lits)))
		for _, l := range r.Lits {
			e.lit(l)
		}
	case KindTheoryLemma:
		e.uvarint(r.ID)
		e.uvarint(uint64(len(r.Lits)))
		for _, l := range r.Lits {
			e.lit(l)
		}
		for _, q := range r.Coeffs {
			e.rat(q)
		}
	case KindDelete:
		e.uvarint(r.ID)
	case KindUnsat:
		e.uvarint(r.Check)
		e.uvarint(uint64(len(r.Lits)))
		for _, l := range r.Lits {
			e.lit(l)
		}
	case KindGateDef:
		e.uvarint(r.ID)
		e.byte(byte(r.Gate))
		e.uvarint(uint64(r.Var))
		e.uvarint(uint64(len(r.Lits)))
		for _, l := range r.Lits {
			e.lit(l)
		}
	case KindCardDef:
		e.uvarint(r.ID)
		e.byte(cardSeqCounter)
		e.varint(int64(r.K))
		e.uvarint(uint64(r.Var))
		e.lit(r.Guard)
		e.uvarint(uint64(len(r.Lits)))
		for _, l := range r.Lits {
			e.lit(l)
		}
	default:
		panic(fmt.Sprintf("proof: encoding unknown record kind %d", r.Kind))
	}
}

// Reader decodes a proof stream record by record.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r, checking the stream header. A stream written in a
// different format version yields an error wrapping ErrVersion.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("proof: reading header: %w", err)
	}
	if string(head) != magic {
		if string(head[:len(magicPrefix)]) == magicPrefix {
			return nil, fmt.Errorf("proof: stream has format header %q, this checker reads %q: %w",
				head[:len(magic)-1], magic[:len(magic)-1], ErrVersion)
		}
		return nil, errors.New("proof: not a segrid proof stream (bad magic)")
	}
	return &Reader{br: br}, nil
}

// Next decodes the next record, returning io.EOF at a clean end of stream.
// A truncated or malformed record yields a descriptive error.
func (r *Reader) Next() (*Record, error) {
	tag, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	rec := &Record{Kind: Kind(tag)}
	switch rec.Kind {
	case KindRestart:
	case KindSlackDef:
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxProofLen {
			return nil, fmt.Errorf("proof: slack definition with %d terms exceeds limit", n)
		}
		rec.Var = int(v)
		rec.Terms = make([]Term, n)
		for i := range rec.Terms {
			tv, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			c, err := r.rat()
			if err != nil {
				return nil, err
			}
			rec.Terms[i] = Term{Var: int(tv), Coeff: c}
		}
	case KindAtomDef:
		v, err := r.varIndex()
		if err != nil {
			return nil, err
		}
		slack, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rec.Var, rec.Slack = v, int(slack)
		if rec.Pos, err = r.delta(); err != nil {
			return nil, err
		}
		if rec.Neg, err = r.delta(); err != nil {
			return nil, err
		}
	case KindInput, KindDerived:
		if rec.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rec.Lits, err = r.lits(); err != nil {
			return nil, err
		}
	case KindTheoryLemma:
		if rec.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rec.Lits, err = r.lits(); err != nil {
			return nil, err
		}
		rec.Coeffs = make([]numeric.Q, len(rec.Lits))
		for i := range rec.Coeffs {
			if rec.Coeffs[i], err = r.rat(); err != nil {
				return nil, err
			}
		}
	case KindDelete:
		if rec.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
	case KindUnsat:
		if rec.Check, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rec.Lits, err = r.lits(); err != nil {
			return nil, err
		}
	case KindGateDef:
		if rec.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		g, err := r.br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("proof: truncated record: %w", io.ErrUnexpectedEOF)
		}
		rec.Gate = cnf.Gate(g)
		if !rec.Gate.Valid() {
			return nil, fmt.Errorf("proof: unknown gate shape %d", g)
		}
		if rec.Var, err = r.varIndex(); err != nil {
			return nil, err
		}
		if rec.Lits, err = r.lits(); err != nil {
			return nil, err
		}
	case KindCardDef:
		if rec.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		en, err := r.br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("proof: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if en != cardSeqCounter {
			return nil, fmt.Errorf("proof: unknown cardinality encoding %d", en)
		}
		k, err := binary.ReadVarint(r.br)
		if err != nil {
			return nil, fmt.Errorf("proof: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if k > maxProofLen || k < -maxProofLen {
			return nil, fmt.Errorf("proof: cardinality bound %d out of range", k)
		}
		rec.K = int(k)
		if rec.Var, err = r.varIndex(); err != nil {
			return nil, err
		}
		if rec.Guard, err = r.guardLit(); err != nil {
			return nil, err
		}
		if rec.Lits, err = r.lits(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("proof: unknown record kind %d", tag)
	}
	return rec, nil
}

// maxProofLen caps per-record element counts so a corrupted length prefix
// cannot drive a multi-gigabyte allocation before the payload read fails.
const maxProofLen = 1 << 24

// maxProofVar caps SAT variable indices in a stream: the checker's
// assignment and watch arrays are indexed by variable, so an adversarial
// record naming variable 2³¹ must fail in the reader, not allocate
// gigabytes. Real certificates stay far below this (the largest tracked
// workloads use well under a million variables).
const maxProofVar = 1 << 22

func (r *Reader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return 0, fmt.Errorf("proof: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return v, err
}

func (r *Reader) lits() ([]sat.Lit, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxProofLen {
		return nil, fmt.Errorf("proof: clause with %d literals exceeds limit", n)
	}
	out := make([]sat.Lit, n)
	for i := range out {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l := sat.Lit(uint32(v))
		if l < 0 || int(l.Var()) > maxProofVar {
			return nil, fmt.Errorf("proof: literal %d out of range", v)
		}
		out[i] = l
	}
	return out, nil
}

// varIndex reads a SAT variable index, bounded like clause literals.
func (r *Reader) varIndex() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxProofVar {
		return 0, fmt.Errorf("proof: variable index %d out of range", v)
	}
	return int(v), nil
}

// guardLit reads a guard literal: a bounded literal or sat.LitUndef.
func (r *Reader) guardLit() (sat.Lit, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	l := sat.Lit(uint32(v))
	if l == sat.LitUndef {
		return l, nil
	}
	if l < 0 || int(l.Var()) > maxProofVar {
		return 0, fmt.Errorf("proof: guard literal %d out of range", v)
	}
	return l, nil
}

func (r *Reader) rat() (numeric.Q, error) {
	tag, err := r.br.ReadByte()
	if err != nil {
		return numeric.Q{}, fmt.Errorf("proof: truncated rational: %w", io.ErrUnexpectedEOF)
	}
	switch tag {
	case ratSmall:
		num, err := binary.ReadVarint(r.br)
		if err != nil {
			return numeric.Q{}, fmt.Errorf("proof: truncated rational: %w", io.ErrUnexpectedEOF)
		}
		den, err := binary.ReadUvarint(r.br)
		if err != nil {
			return numeric.Q{}, fmt.Errorf("proof: truncated rational: %w", io.ErrUnexpectedEOF)
		}
		if den == 0 || den > math.MaxInt64 {
			return numeric.Q{}, fmt.Errorf("proof: rational denominator %d out of range", den)
		}
		return numeric.QFromFrac(num, int64(den)), nil
	case ratBig:
		n, err := r.uvarint()
		if err != nil {
			return numeric.Q{}, err
		}
		if n > maxProofLen {
			return numeric.Q{}, fmt.Errorf("proof: rational literal of %d bytes exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return numeric.Q{}, fmt.Errorf("proof: truncated rational: %w", err)
		}
		rat, ok := new(big.Rat).SetString(string(buf))
		if !ok {
			return numeric.Q{}, fmt.Errorf("proof: malformed rational %q", buf)
		}
		return numeric.QFromRat(rat), nil
	default:
		return numeric.Q{}, fmt.Errorf("proof: unknown rational tag %d", tag)
	}
}

func (r *Reader) delta() (numeric.Delta, error) {
	std, err := r.rat()
	if err != nil {
		return numeric.Delta{}, err
	}
	inf, err := r.rat()
	if err != nil {
		return numeric.Delta{}, err
	}
	return numeric.NewDeltaQ(std, inf), nil
}

// ReadAll decodes an entire stream; tooling and mutation tests use it to
// inspect or rewrite proofs record by record.
func ReadAll(r io.Reader) ([]*Record, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []*Record
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAll serializes records behind a fresh header — the inverse of
// ReadAll.
func WriteAll(w io.Writer, recs []*Record) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var e encoder
	for _, rec := range recs {
		e.buf = e.buf[:0]
		e.record(rec)
		if _, err := w.Write(e.buf); err != nil {
			return err
		}
	}
	return nil
}
