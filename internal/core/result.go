package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"segrid/internal/proof"
	"segrid/internal/smt"
)

// Result is the outcome of an attack verification run. When Feasible is
// true the remaining fields describe one concrete attack (the paper's
// attack vector: the assignments of cz, cb, el, il and the state changes).
type Result struct {
	Feasible bool

	// Inconclusive reports that the solver gave up before deciding —
	// resource budget exhausted or the check was cancelled. Feasible is
	// then meaningless (the attack was neither found nor excluded) and Why
	// explains the cause. Stats still describes the partial work.
	Inconclusive bool

	// Why explains an inconclusive run (see smt.Result.Why); nil otherwise.
	Why error

	// AlteredMeasurements lists the measurement IDs the attacker must
	// inject false data into (cz), ascending.
	AlteredMeasurements []int

	// CompromisedBuses lists the substations hosting those measurements
	// (cb), ascending.
	CompromisedBuses []int

	// ExcludedLines and IncludedLines describe the topology poisoning part
	// of the attack, if any.
	ExcludedLines []int
	IncludedLines []int

	// StateChanges maps bus → Δθ for every corrupted state (exact model
	// values).
	StateChanges map[int]*big.Rat

	// TopoFlowDeltas maps line → the topology-induced flow measurement
	// delta ΔPT the model chose for an excluded/included line (exact
	// values; base-case dependent in reality, free in the model).
	TopoFlowDeltas map[int]*big.Rat

	// Proof identifies the UNSAT certificate covering this verdict when the
	// scenario's solver options carry a proof writer and the attack is
	// infeasible (Feasible and Inconclusive both false). Nil otherwise.
	Proof *proof.Handle

	// Stats reports solver work and model size.
	Stats smt.Stats
}

// StateChangeFloat returns Δθ of a bus as float64 (0 when unchanged).
func (r *Result) StateChangeFloat(bus int) float64 {
	if c, ok := r.StateChanges[bus]; ok {
		f, _ := c.Float64()
		return f
	}
	return 0
}

// Check solves the model in its current scope state and extracts the
// result. It is CheckContext with a background context.
func (m *Model) Check() (*Result, error) {
	return m.CheckContext(context.Background())
}

// ErrRefused is wrapped by the Why of a feasible verdict the exact
// evaluator refused (see CheckContext).
var ErrRefused = errors.New("core: the exact evaluator refused the solver's attack")

// CheckContext solves the model under ctx. Cancellation and budget
// exhaustion (see smt.Budget) are not errors: they yield a Result with
// Inconclusive set, partial Stats, and Why carrying the cause. A feasible
// verdict is replayed by ExactMeasurementDeltas on the scenario with every
// overlay recorded in a live scope folded in; if the evaluator refuses it,
// the check is Inconclusive with Stats.Unknown smt.ReasonOther.
func (m *Model) CheckContext(ctx context.Context) (*Result, error) {
	res, err := m.solver.CheckContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: attack model check: %w", err)
	}
	out := m.extract(res)
	if !out.Feasible {
		return out, nil
	}
	sc := m.sc
	for _, ov := range m.overlays {
		if sc, err = sc.With(ov); err != nil {
			break
		}
	}
	if err == nil {
		_, err = ExactMeasurementDeltas(sc, out)
	}
	if err != nil {
		out = &Result{Inconclusive: true, Why: fmt.Errorf("%w: %w", ErrRefused, err), Stats: out.Stats}
		out.Stats.Unknown = smt.ReasonOther
	}
	return out, nil
}

// extract converts the solver's verdict into an attack verification Result,
// reading the attack vector out of a Sat model.
func (m *Model) extract(res *smt.Result) *Result {
	out := &Result{Stats: res.Stats}
	if res.Status == smt.Unsat {
		out.Proof = res.Proof
		return out
	}
	if res.Status != smt.Sat {
		out.Inconclusive = true
		out.Why = res.Why
		return out
	}
	out.Feasible = true
	sys := m.sc.System()
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if m.hasCZ[id] && res.Bool(m.cz[id]) {
			out.AlteredMeasurements = append(out.AlteredMeasurements, id)
		}
	}
	for j := 1; j <= sys.Buses; j++ {
		if res.Bool(m.cb[j]) {
			out.CompromisedBuses = append(out.CompromisedBuses, j)
		}
	}
	out.TopoFlowDeltas = make(map[int]*big.Rat)
	for i := 1; i <= sys.NumLines(); i++ {
		attacked := false
		if m.hasEL[i] && res.Bool(m.el[i]) {
			out.ExcludedLines = append(out.ExcludedLines, i)
			attacked = true
		}
		if m.hasIL[i] && res.Bool(m.il[i]) {
			out.IncludedLines = append(out.IncludedLines, i)
			attacked = true
		}
		if attacked && m.hasDPT[i] {
			out.TopoFlowDeltas[i] = res.Real(m.dpt[i])
		}
	}
	out.StateChanges = make(map[int]*big.Rat)
	for j := 1; j <= sys.Buses; j++ {
		if !m.hasDT[j] {
			continue
		}
		v := res.Real(m.dtheta[j])
		if v.Sign() != 0 {
			out.StateChanges[j] = v
		}
	}
	sort.Ints(out.AlteredMeasurements)
	sort.Ints(out.CompromisedBuses)
	return out
}

// Verify builds the model for the scenario and checks it once. It is the
// package's convenience entry point.
func Verify(sc *Scenario) (*Result, error) {
	return VerifyContext(context.Background(), sc)
}

// VerifyContext is Verify under a context: model construction is not
// interruptible (it is pure encoding-input preparation), but the check
// itself honors ctx and the scenario's solver budget.
func VerifyContext(ctx context.Context, sc *Scenario) (*Result, error) {
	m, err := NewModel(sc)
	if err != nil {
		return nil, err
	}
	return m.CheckContext(ctx)
}
