package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/proof"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// verify answers one verification request as a one-item sweep: the
// request's secured buses and measurements are the item's overlay on its
// attack spec, so it runs through the same planner, screening tier and
// group executor (with its warm→fresh retry ladder) as every /v1/sweep
// item. Proof requests plan onto a proof group, which answers on a
// throwaway encoder, and are never screened: they explicitly ask for
// solver artifacts.
func (s *Service) verify(ctx context.Context, req *VerifyRequest) (*VerifyResponse, *handlerError) {
	one := &SweepRequest{
		Attack:    req.Attack,
		Items:     []SweepItem{{SecuredBuses: req.SecuredBuses, SecuredMeasurements: req.SecuredMeasurements}},
		Screen:    req.Screen,
		TimeoutMs: req.TimeoutMs,
	}
	resp, herr := s.sweep(ctx, one, req.Proof)
	if herr != nil {
		// The planner names the failing item; a verify has only the one.
		return nil, &handlerError{herr.status, strings.TrimPrefix(herr.msg, "sweep item 0: ")}
	}
	return resp.Items[0], nil
}

// checkWarm runs one check on a leased warm encoder. The overlay is
// asserted inside a Push/Pop scope; poisoned reports whether the encoder
// must be quarantined (Unknown result, panic, failed Pop — any ending after
// which its internal state cannot be trusted). A nil result with a nil
// error is a recovered panic.
func (s *Service) checkWarm(ctx context.Context, m *core.Model, ov core.Overlay) (res *core.Result, poisoned bool, err error) {
	sv := m.Solver()
	sv.SetBudget(s.cfg.Budget)
	if s.cfg.Faults != nil {
		sv.SetInterrupter(faultinject.NewInjector(s.cfg.Faults.Next()))
		defer sv.SetInterrupter(nil)
	}
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			res, poisoned, err = nil, true, nil
		}
	}()
	m.Push()
	if err := m.Assert(ov); err != nil {
		// Planning validated the overlay, so this is unexpected; the
		// encoder is fine once the scope unwinds.
		return nil, m.Pop() != nil, err
	}
	res, err = s.checkModel(ctx, m)
	if err != nil {
		return nil, true, err
	}
	// An Inconclusive check (torn mid-flight, or refused by the replay):
	// skip the Pop and quarantine. A verdict predating a failed Pop stands,
	// but the encoder does not go back to the pool.
	return res, res.Inconclusive || m.Pop() != nil, nil
}

// checkModel answers one verification check with a sequential solve. The
// solve counter and the in-flight-workers gauge cover the exact solver
// lifetime; a feasible verdict the model's replay refused is counted.
func (s *Service) checkModel(ctx context.Context, m *core.Model) (*core.Result, error) {
	s.m.sequentialSolves.Add(1)
	defer s.m.trackWorkers(1)()
	res, err := m.CheckContext(ctx)
	if err == nil && errors.Is(res.Why, core.ErrRefused) {
		s.m.feasibleReplayRejects.Add(1)
	}
	return res, err
}

// verifyFresh answers one item of g on a throwaway encoder — proof groups,
// pool exhaustion, and the retry ladder's trustworthy rung —
// optionally streaming an UNSAT certificate to a per-request atomic file.
// The encoder is built from a shallow copy of the group's planned scenario
// carrying this check's solver options; encoding only reads the scenario.
// Each call is a cold build, counted into builds. Failures that are not a
// scenario verdict answer inconclusive.
func (s *Service) verifyFresh(ctx context.Context, g *sweepGroup, ov core.Overlay, retries int, builds *atomic.Int64) *VerifyResponse {
	builds.Add(1)
	sc := *g.sc
	opts := smt.DefaultOptions()
	opts.Budget = s.cfg.Budget
	var dec faultinject.Decision
	if s.cfg.Faults != nil {
		dec = s.cfg.Faults.Next()
		opts.Interrupter = faultinject.NewInjector(dec)
	}

	var (
		pw        *proof.Writer
		tmp       *os.File
		finalName string
	)
	if g.proof {
		f, err := proof.Stage(s.cfg.ProofDir, ".verify-", ".tmp")
		if err != nil {
			return itemFailure(fmt.Sprintf("stage certificate: %v", err))
		}
		tmp = f
		pw = proof.NewWriter(dec.Wrap(f))
		opts.Proof = pw
		finalName = proof.UniqueName("verify-", ".proof")
	}
	sc.Options = &opts

	resp := func() (resp *VerifyResponse) {
		defer func() {
			if r := recover(); r != nil {
				s.m.panics.Add(1)
				resp = itemFailure(fmt.Sprintf("solver panic: %v", r))
			}
		}()
		m, err := core.NewModelContext(ctx, &sc)
		if err != nil {
			if ctx.Err() != nil {
				// The fresh encoding was abandoned by this request's own
				// deadline or cancellation.
				return ctxExpired(ctx.Err())
			}
			return itemFailure(err.Error())
		}
		if err := m.Assert(ov); err != nil {
			return itemFailure(err.Error())
		}
		res, err := s.checkModel(ctx, m)
		if err != nil {
			return itemFailure(err.Error())
		}
		return s.buildResponse(res, false, retries)
	}()

	if pw != nil {
		werr := pw.Close()
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		infeasible := resp.Status == "infeasible"
		if infeasible && werr == nil {
			// Publish: the certificate is complete and certifies this very
			// verdict. Rename is atomic; a crash before it leaves only a
			// hidden temp.
			final := filepath.Join(s.cfg.ProofDir, finalName)
			if err := os.Rename(tmp.Name(), final); err != nil {
				_ = os.Remove(tmp.Name())
				resp.ProofError = err.Error()
			} else {
				resp.ProofFile = finalName
			}
		} else {
			// Feasible/inconclusive runs have nothing to certify; a failed
			// stream must never publish. The verdict itself is unaffected —
			// the solver does not abort on a failing proof sink.
			_ = os.Remove(tmp.Name())
			if infeasible && werr != nil {
				s.m.proofErrors.Add(1)
				resp.ProofError = fmt.Sprintf("certificate stream failed: %v", werr)
			}
		}
	}
	return resp
}

// screenEnabled resolves a per-request screening override against the
// server default: nil keeps the configuration, non-nil wins either way.
func (s *Service) screenEnabled(override *bool) bool {
	if override != nil {
		return *override
	}
	return s.cfg.Screen
}

// screenItem runs the LP-relaxation screening tier on the group's planned
// scenario with ov folded into a copy of it. It runs inside the item's
// group unit, on a scheduler worker. A definitive verdict comes back as a
// complete response with Screened set — the caller answers the item with it
// and never touches the encoder pool. Anything else (inconclusive screen,
// malformed overlay, screening error) returns nil: the SMT path runs as if
// the screen did not exist and reports its own errors, so screening never
// changes what a request can observe beyond latency.
func (s *Service) screenItem(ctx context.Context, base *core.Scenario, ov core.Overlay) *VerifyResponse {
	start := time.Now()
	sc, err := base.With(ov)
	if err != nil {
		return nil
	}
	res, err := core.ScreenScenario(ctx, sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	s.m.screenNanos.Add(uint64(time.Since(start).Nanoseconds()))
	if err != nil || !res.Verdict.Definitive() {
		s.m.screenInconclusive.Add(1)
		return nil
	}
	if res.Verdict == screen.Infeasible {
		s.m.screenRejects.Add(1)
	} else {
		s.m.screenAccepts.Add(1)
	}
	r := s.buildResponse(res.Result, false, 0)
	r.Screened = true
	return r
}

// buildResponse maps a core.Result onto the wire, a feasible one as a ring
// witness would answer it. A nil result (panic on the warm rung with no
// fresh retry possible) reports inconclusive.
func (s *Service) buildResponse(res *core.Result, warm bool, retries int) *VerifyResponse {
	resp := &VerifyResponse{Warm: warm, Retries: retries}
	if res == nil {
		resp.Status = "inconclusive"
		resp.Why = "solver panic on warm encoder"
		resp.UnknownReason = unknownToken(smt.ReasonOther)
		return resp
	}
	switch {
	case res.Inconclusive:
		resp.Status = "inconclusive"
		if res.Why != nil {
			resp.Why = res.Why.Error()
		}
		resp.UnknownReason = unknownToken(res.Stats.Unknown)
	case res.Feasible:
		return newWitness(res).response(warm, retries)
	default:
		resp.Status = "infeasible"
	}
	return resp
}
