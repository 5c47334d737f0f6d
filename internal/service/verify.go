package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/pool"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/sched"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// verify answers one verification request: the screening tier first (on the
// request goroutine, consulting the screen-verdict cache — a definitive
// screen never schedules anything), then one scheduler work unit running
// the retry ladder:
//
//  1. a warm pooled encoder, with the per-request overlay asserted in a
//     solver scope — the cheap path;
//  2. on a retryable failure (budget kind, injected interruption, panic,
//     scope mismatch), a fresh per-check encoder — the trustworthy path;
//  3. only then an inconclusive answer carrying the machine-readable
//     reason.
//
// A non-retryable failure (the request's own deadline or cancellation)
// short-circuits to inconclusive: retrying against an expired deadline
// cannot succeed. At no point does a failure turn into a guessed verdict.
//
// admit, when non-nil, is called exactly once after the request's units (if
// any) are submitted — with the flow, or with nil when screening answered
// without scheduling. A non-nil admit error means the flow was aborted
// before starting (queue-wait shed, client gone); verify returns it without
// waiting.
func (s *Service) verify(ctx context.Context, req *VerifyRequest, admit func(*sched.Flow) *handlerError) (*VerifyResponse, *handlerError) {
	if admit == nil {
		admit = func(*sched.Flow) *handlerError { return nil }
	}
	ov := &overlay{
		securedBuses:        req.SecuredBuses,
		securedMeasurements: req.SecuredMeasurements,
	}
	if s.screenEnabled(req.Screen) && !req.Proof && !req.FreshEncode {
		// The screening tier answers ahead of the whole encoder machinery:
		// no pool key, no lease, no SMT work, no scheduled unit. Proof
		// requests skip it (the client wants the solver's certificate
		// stream), as do differential freshEncode requests.
		if r := s.screenItem(ctx, &req.Attack, ov); r != nil {
			_ = admit(nil)
			return r, nil
		}
	}
	fl := s.sched.NewFlow(1)
	var (
		resp *VerifyResponse
		herr *handlerError
	)
	if err := fl.Submit(1, func() { resp, herr = s.verifySolve(ctx, req, ov) }); err != nil {
		_ = admit(nil)
		return nil, &handlerError{http.StatusServiceUnavailable, "scheduler shutting down"}
	}
	if aerr := admit(fl); aerr != nil {
		return nil, aerr
	}
	fl.Wait()
	return resp, herr
}

// verifySolve is the body of a verification work unit: the warm-pool path
// with the warm→fresh retry ladder.
func (s *Service) verifySolve(ctx context.Context, req *VerifyRequest, ov *overlay) (*VerifyResponse, *handlerError) {
	if req.Proof || req.FreshEncode {
		// Certificate streams capture a solver lifetime; differential
		// requests want no shared state. Both bypass the pool.
		return s.verifyFresh(ctx, &req.Attack, ov, req.Proof, 0)
	}
	key, herr := s.keyFor(&req.Attack)
	if herr != nil {
		return nil, herr
	}
	if key == (pool.Key{}) {
		// A key-hash collision between distinct specs: never share an
		// encoder across models. Fall back to a fresh encoding.
		return s.verifyFresh(ctx, &req.Attack, ov, false, 0)
	}
	lease, err := s.pool.Checkout(ctx, key)
	if errors.Is(err, pool.ErrExhausted) {
		return nil, &handlerError{http.StatusServiceUnavailable, "encoder pool exhausted"}
	}
	if err != nil {
		if ctx.Err() != nil {
			// The cold build was abandoned because this request's deadline
			// expired or it was cancelled — an inconclusive answer, not a
			// client error.
			return ctxExpired(ctx.Err()), nil
		}
		return nil, &handlerError{http.StatusBadRequest, err.Error()}
	}
	res, herr, poisoned := s.checkWarm(ctx, lease.Item.model, ov)
	if poisoned {
		s.m.poisoned.Add(1)
		_ = lease.Discard()
	} else {
		_ = lease.Return()
	}
	if herr != nil {
		return nil, herr
	}
	if res != nil && !res.Inconclusive {
		return s.buildResponse(res, lease.Warm(), 0), nil
	}
	// Decide whether the failure is worth a fresh-encoder retry.
	retryable := res == nil // a panic is encoder trouble, not request trouble
	if res != nil {
		retryable = res.Stats.Unknown.Retryable()
	}
	if !retryable || ctx.Err() != nil {
		return s.buildResponse(res, lease.Warm(), 0), nil
	}
	s.m.retries.Add(1)
	return s.verifyFresh(ctx, &req.Attack, ov, false, 1)
}

// keyFor fingerprints spec into its pool key and registers the spec for the
// pool's cold-build hook. A key-hash collision against a different
// registered spec returns the zero Key: the caller must not share an
// encoder and falls back to fresh encoding.
func (s *Service) keyFor(spec *scenariofile.AttackSpec) (pool.Key, *handlerError) {
	key, err := poolKey(spec)
	if err != nil {
		return pool.Key{}, &handlerError{http.StatusBadRequest, err.Error()}
	}
	if prev, loaded := s.specs.LoadOrStore(key, spec); loaded {
		if !specEqual(prev.(*scenariofile.AttackSpec), spec) {
			return pool.Key{}, nil
		}
	}
	return key, nil
}

// checkWarm runs one check on a leased warm encoder. The overlay is
// asserted inside a Push/Pop scope; the boolean result reports whether the
// encoder must be quarantined (Unknown result, panic, failed Pop — any
// ending after which its internal state cannot be trusted).
func (s *Service) checkWarm(ctx context.Context, m *core.Model, ov *overlay) (res *core.Result, herr *handlerError, poisoned bool) {
	sv := m.Solver()
	sv.SetBudget(s.cfg.Budget)
	if s.cfg.Faults != nil {
		sv.SetInterrupter(faultinject.NewInjector(s.cfg.Faults.Next()))
		defer sv.SetInterrupter(nil)
	}
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			res, herr, poisoned = nil, nil, true
		}
	}()
	sv.Push()
	if err := applyOverlay(m, ov); err != nil {
		// Invalid overlay is the caller's error; the encoder is fine once
		// the scope unwinds.
		if perr := sv.Pop(); perr != nil {
			return nil, &handlerError{http.StatusBadRequest, err.Error()}, true
		}
		return nil, &handlerError{http.StatusBadRequest, err.Error()}, false
	}
	res, err := s.checkModel(ctx, m)
	if err != nil {
		return nil, &handlerError{http.StatusInternalServerError, err.Error()}, true
	}
	if res.Inconclusive {
		// The solve was torn mid-flight; skip the Pop and quarantine.
		return res, nil, true
	}
	if err := sv.Pop(); err != nil {
		// The verdict predates the failed Pop and stands; the encoder does
		// not go back to the pool.
		return res, nil, true
	}
	return res, nil, false
}

// checkModel answers one verification check with a sequential solve. The
// solve counter and the in-flight-workers gauge cover the exact solver
// lifetime.
func (s *Service) checkModel(ctx context.Context, m *core.Model) (*core.Result, error) {
	s.m.sequentialSolves.Add(1)
	defer s.m.trackWorkers(1)()
	return m.CheckContext(ctx)
}

// verifyFresh is the ladder's trustworthy rung: a throwaway FreshPerCheck
// encoder for spec with ov asserted, optionally streaming an UNSAT
// certificate to a per-request atomic file.
func (s *Service) verifyFresh(ctx context.Context, spec *scenariofile.AttackSpec, ov *overlay, wantProof bool, retries int) (*VerifyResponse, *handlerError) {
	sc, err := spec.Scenario()
	if err != nil {
		return nil, &handlerError{http.StatusBadRequest, err.Error()}
	}
	opts := smt.DefaultOptions()
	opts.FreshPerCheck = true
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
	if wantProof {
		f, err := os.CreateTemp(s.cfg.ProofDir, ".verify-*.tmp")
		if err != nil {
			return nil, &handlerError{http.StatusInternalServerError, fmt.Sprintf("stage certificate: %v", err)}
		}
		tmp = f
		pw = proof.NewWriter(dec.Wrap(f))
		opts.Proof = pw
		finalName = proof.UniqueName("verify-", ".proof")
	}
	sc.Options = &opts

	resp, herr := func() (resp *VerifyResponse, herr *handlerError) {
		defer func() {
			if r := recover(); r != nil {
				s.m.panics.Add(1)
				resp, herr = nil, &handlerError{http.StatusInternalServerError, fmt.Sprintf("solver panic: %v", r)}
			}
		}()
		m, err := core.NewModelContext(ctx, sc)
		if err != nil {
			if ctx.Err() != nil {
				// The fresh encoding was abandoned by this request's own
				// deadline or cancellation: an inconclusive answer.
				return ctxExpired(ctx.Err()), nil
			}
			return nil, &handlerError{http.StatusBadRequest, err.Error()}
		}
		if err := applyOverlay(m, ov); err != nil {
			return nil, &handlerError{http.StatusBadRequest, err.Error()}
		}
		res, err := s.checkModel(ctx, m)
		if err != nil {
			return nil, &handlerError{http.StatusInternalServerError, err.Error()}
		}
		return s.buildResponse(res, false, retries), nil
	}()

	if pw != nil {
		werr := pw.Close()
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		infeasible := herr == nil && resp != nil && resp.Status == "infeasible"
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
	return resp, herr
}

// screenEnabled resolves a per-request screening override against the
// server default: nil keeps the configuration, non-nil wins either way.
func (s *Service) screenEnabled(override *bool) bool {
	if override != nil {
		return *override
	}
	return s.cfg.Screen
}

// screenItem runs the LP-relaxation screening tier on one (spec, overlay)
// instance, consulting the cross-request screen-verdict cache first. A
// definitive verdict comes back as a complete response with Screened set —
// the caller returns it and never touches the encoder pool or the
// scheduler. Anything else (inconclusive screen, malformed spec or overlay,
// screening error) returns nil: the SMT path runs as if the screen did not
// exist and reports its own errors, so screening never changes what a
// request can observe beyond latency.
//
// Cache hits count into the regular screen verdict counters (plus the hit
// counter), so the accept/reject/inconclusive ledger stays the tier's
// complete answer record whether a verdict was computed or remembered.
func (s *Service) screenItem(ctx context.Context, spec *scenariofile.AttackSpec, ov *overlay) *VerifyResponse {
	key := screenCacheKey(spec, ov)
	if cached, ok := s.screens.get(key); ok {
		s.m.screenCacheHits.Add(1)
		if cached == nil {
			s.m.screenInconclusive.Add(1)
			return nil
		}
		if cached.Feasible {
			s.m.screenAccepts.Add(1)
		} else {
			s.m.screenRejects.Add(1)
		}
		r := s.buildResponse(cached, false, 0)
		r.Screened = true
		return r
	}
	s.m.screenCacheMisses.Add(1)
	start := time.Now()
	sc, err := spec.Scenario()
	if err != nil {
		return nil
	}
	if err := overlayScenario(sc, ov); err != nil {
		return nil
	}
	res, err := core.ScreenScenario(ctx, sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	s.m.screenNanos.Add(uint64(time.Since(start).Nanoseconds()))
	if err != nil || !res.Verdict.Definitive() {
		s.m.screenInconclusive.Add(1)
		if err == nil && ctx.Err() == nil {
			// A clean inconclusive is deterministic (the pivot cap, not the
			// clock, gave up) and worth remembering: repeats skip straight
			// to the SMT tier.
			s.screens.put(key, nil)
		}
		return nil
	}
	cres := core.ResultFromScreen(res)
	s.screens.put(key, cres)
	if res.Verdict == screen.Infeasible {
		s.m.screenRejects.Add(1)
	} else {
		s.m.screenAccepts.Add(1)
	}
	r := s.buildResponse(cres, false, 0)
	r.Screened = true
	return r
}

// overlayScenario folds a per-request overlay into a freshly built scenario
// — the screening tier's equivalent of applyOverlay, which asserts the same
// delta on an encoded model. Securing a bus means securing every
// measurement homed at it, exactly the semantics of the model-level
// bus-compromise indicator being forced false.
func overlayScenario(sc *core.Scenario, ov *overlay) error {
	for _, j := range ov.securedBuses {
		if err := sc.Meas.SecureBus(j); err != nil {
			return err
		}
	}
	if len(ov.securedMeasurements) > 0 {
		if err := sc.Meas.Secure(ov.securedMeasurements...); err != nil {
			return err
		}
	}
	// Overlay bounds are only ever tightenings (planItem re-specs anything
	// else), so replacing the scenario bound is exact.
	if ov.maxAltered > 0 {
		sc.MaxAlteredMeasurements = ov.maxAltered
	}
	if ov.maxBuses > 0 {
		sc.MaxCompromisedBuses = ov.maxBuses
	}
	return nil
}

// overlay is a per-check scoped delta asserted on top of an encoded model:
// extra integrity protections and/or tightened resource bounds. Everything
// an overlay can express only shrinks the feasible set, which is what makes
// answering it inside a Push/Pop scope on a shared warm encoder sound.
type overlay struct {
	securedBuses        []int
	securedMeasurements []int
	// maxAltered / maxBuses, when positive, layer scoped Eq. 22 / Eq. 24
	// cardinality bounds tighter than (or absent from) the encoded base
	// spec. Loosening a base bound is not expressible here — it requires a
	// different encoder.
	maxAltered int
	maxBuses   int
}

// applyOverlay asserts the overlay in the solver's current scope.
func applyOverlay(m *core.Model, ov *overlay) error {
	if len(ov.securedBuses) > 0 {
		if err := m.AssertBusesSecured(ov.securedBuses); err != nil {
			return err
		}
	}
	if len(ov.securedMeasurements) > 0 {
		if err := m.AssertMeasurementsSecured(ov.securedMeasurements); err != nil {
			return err
		}
	}
	if ov.maxAltered > 0 {
		if err := m.AssertMaxAlteredMeasurements(ov.maxAltered); err != nil {
			return err
		}
	}
	if ov.maxBuses > 0 {
		if err := m.AssertMaxCompromisedBuses(ov.maxBuses); err != nil {
			return err
		}
	}
	return nil
}

// buildResponse maps a core.Result onto the wire. A nil result (panic on
// the warm rung with no fresh retry possible) reports inconclusive.
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
		resp.Status = "feasible"
		resp.AlteredMeasurements = res.AlteredMeasurements
		resp.CompromisedBuses = res.CompromisedBuses
		resp.ExcludedLines = res.ExcludedLines
		resp.IncludedLines = res.IncludedLines
		resp.StateChanges = ratMap(res.StateChanges)
	default:
		resp.Status = "infeasible"
	}
	return resp
}
