// Package service is the fault-tolerant attack-analytics server behind
// cmd/segridd: verification, countermeasure synthesis and certificate
// re-checking as long-running HTTP endpoints over the paper's analysis
// stack.
//
// The robustness substrate, in one place:
//
//   - Warm encoders live in a pool (package pool) keyed by grid topology ×
//     attack-model shape. A healthy check returns its encoder; any check
//     that ends Unknown, panics, or trips a scope mismatch quarantines it —
//     a poisoned encoder is never reused.
//   - Every request decomposes into work units on the shared scheduler
//     (package sched): a sweep is one unit per encoder-compatibility group,
//     screens included, a verify a one-item sweep, a synthesis or a proof
//     check one unit. A fixed worker set drains units with
//     deficit-round-robin fairness across requests, so a large sweep
//     interleaves with small verifies instead of blocking them; a one-unit
//     request starts on its own goroutine when a slot is free and nothing
//     is queued.
//   - The scheduler is also the admission queue: it bounds the waiting
//     requests and how long one may wait for its first unit to start.
//     Excess load is shed with 429/503 plus Retry-After — an overloaded
//     server refuses work, it never guesses an answer.
//   - Every request carries a deadline that propagates into the solver; an
//     expired check reports inconclusive with a machine-readable reason.
//   - A retry ladder falls back from the warm incremental encoder to a
//     fresh per-check encoding before reporting inconclusive, so transient
//     encoder trouble costs latency, not soundness.
//   - Every feasible verdict is checked by the exact evaluator before it is
//     published, including attacks a warm encoder remembers and reuses
//     for later overlays (reuse.go); a refused one answers inconclusive.
//   - Certificate streams are per-request files staged in hidden
//     temporaries and renamed into place only when complete; a crash or a
//     failing sink never publishes a torn certificate.
//
// A faultinject.Schedule can be installed to drive all of the above
// deterministically in tests.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/pool"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/sched"
	"segrid/internal/smt"
	"segrid/internal/synth"
)

// Config parameterizes a Service. The zero value is usable: defaults are
// applied by New.
type Config struct {
	// MaxConcurrent is the scheduler's worker count (default 4): the bound
	// on units solving at once, whether on the fixed set of goroutines
	// draining queued units with deficit-round-robin fairness or on a
	// request goroutine running its one unit inline (sched.Flow.Do). The
	// solver is CPU-bound; more workers than cores buys latency, not
	// throughput.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for their first work unit to start
	// (default 16). A request arriving past it is shed immediately with 429.
	MaxQueue int
	// QueueWait bounds how long an admitted request waits for its first
	// unit to start (default 2s); past it the request is shed with 503.
	QueueWait time.Duration
	// DefaultTimeout and MaxTimeout bound per-request wall clock (defaults
	// 30s and 2m). A request's timeoutMs is clamped to MaxTimeout.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Budget bounds each solver check (zero: wall clock only). Exhaustion
	// is an inconclusive answer with the budget kind, never a guess.
	Budget smt.Budget
	// ProofDir enables certificate production and checking; empty disables
	// the proof features. The directory must exist.
	ProofDir string
	// PoolMaxLive caps the warm-encoder pool's live encoders, which is also
	// its memory bound (see pool.Config). Zero: the pool default.
	PoolMaxLive int
	// MaxSweepItems bounds the item count of one /v1/sweep request
	// (default 256). Each encoder-compatibility group is its own scheduler
	// unit, so a large sweep interleaves with other requests; the cap
	// still bounds how much work and memory one request can queue, so
	// batch size is an operator decision, not a client one.
	MaxSweepItems int
	// Faults, when non-nil, installs the deterministic fault-injection
	// schedule: every check draws a Decision applied through the solver's
	// interruption points and the certificate sink. Test harness only.
	Faults *faultinject.Schedule
	// CubeWorkers is the default cube-and-conquer worker count for
	// bus-granular synthesis requests: 0 or 1 runs the sequential loop,
	// > 1 fans the search across that many workers, < 0 picks the
	// GOMAXPROCS-aware default. Requests override it with "cubeWorkers".
	CubeWorkers int
	// MaxWorkersPerRequest clamps a request's cube worker count (default 8):
	// a client cannot fan one request wider than the operator allows.
	MaxWorkersPerRequest int
	// Screen enables the LP-relaxation screening tier (internal/screen):
	// each verify request and sweep item is first screened under the
	// screen's default pivot budget, and a definitive screen verdict is
	// answered without leasing an encoder or running the SMT solver.
	// Inconclusive screens fall through unchanged. Requests override it
	// with their "screen" field.
	Screen bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxWorkersPerRequest <= 0 {
		c.MaxWorkersPerRequest = 8
	}
	if c.MaxSweepItems <= 0 {
		c.MaxSweepItems = 256
	}
	return c
}

// cubeWorkers resolves a request's cube worker count against the configured
// default and the per-request clamp: asked == 0 takes the server default,
// negative counts select synth.DefaultWorkers().
func (s *Service) cubeWorkers(asked int) int {
	n := s.cfg.CubeWorkers
	if asked != 0 {
		n = asked
	}
	if n < 0 {
		n = synth.DefaultWorkers()
	}
	if n > s.cfg.MaxWorkersPerRequest {
		n = s.cfg.MaxWorkersPerRequest
	}
	return n
}

// warmModel is the pooled item: one encoded attack model and its ring of
// recent evaluator-accepted attacks (see reuse.go), which lives and dies
// with the encoder.
type warmModel struct {
	model     *core.Model
	witnesses []*witness
}

// Service is the analytics server. Construct with New; register its Handler
// on an http.Server.
type Service struct {
	cfg   Config
	pool  *pool.Pool[*warmModel]
	sched *sched.Scheduler
	m     metrics
	start time.Time
}

// New constructs a Service.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		sched: sched.New(sched.Config{Workers: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue, QueueWait: cfg.QueueWait}),
		start: time.Now(),
	}
	p, err := pool.New(pool.Config[*warmModel]{
		MaxLive: cfg.PoolMaxLive,
		New:     s.buildModel,
		Reset:   resetModel,
		Close:   s.closeModel,
	})
	if err != nil {
		return nil, err
	}
	s.pool = p
	return s, nil
}

// buildModel is the pool's cold-build hook: it decodes the attack spec from
// the key's Shape (see poolKey) and encodes the attack model. The requesting
// check's context flows into the encoding stages, so a build queued behind a
// cancelled or deadline-expired request stops instead of completing dead
// work; callers map the resulting error to an inconclusive answer, not a
// client error.
func (s *Service) buildModel(ctx context.Context, key pool.Key) (*warmModel, error) {
	var spec scenariofile.AttackSpec
	if err := json.Unmarshal([]byte(key.Shape), &spec); err != nil {
		return nil, fmt.Errorf("service: decode pool key shape: %w", err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	m, err := core.NewModelContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	return &warmModel{model: m}, nil
}

// resetModel validates a returning encoder: the overlay scope must have
// unwound to base. A leftover scope means the request path tore — the
// encoder is quarantined by the pool.
func resetModel(wm *warmModel) error {
	if n := wm.model.Solver().NumScopes(); n != 1 {
		return fmt.Errorf("service: encoder scope stack not at base (%d scopes)", n)
	}
	return nil
}

// closeModel is the pool's drop hook: it tears down an encoder leaving the
// pool's accounting on any path (LRU eviction, Reset-failure quarantine,
// Discard, shutdown Drain). The model holds no OS resources — releasing the
// references and letting the GC reclaim the solver arenas is the teardown —
// but running it through the hook keeps teardown observable (the
// encodersClosed counter) and guards against a dropped encoder being reused
// through a stale reference.
func (s *Service) closeModel(wm *warmModel) {
	s.m.encodersClosed.Add(1)
	*wm = warmModel{}
}

// Handler returns the service's HTTP routes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("POST /v1/proofcheck", s.handleProofCheck)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// maxBodyBytes caps every request body. A 256-item ieee118 sweep securing
// every measurement comes to about 0.5 MB; past the cap the decoder fails
// and the request is a 400.
const maxBodyBytes = 4 << 20

// Close stops the scheduler (queued units drain; new submissions are
// refused) and then drains the warm pool. Outstanding requests finish on
// their leased encoders; call after the HTTP server has shut down.
func (s *Service) Close() {
	s.sched.Close()
	s.pool.Drain()
}

// PoolStats exposes the warm-pool counters (tests and /metrics).
func (s *Service) PoolStats() pool.Stats { return s.pool.Stats() }

// SchedStats exposes the work-unit scheduler counters (tests and /metrics).
func (s *Service) SchedStats() sched.Stats { return s.sched.Stats() }

// Verify answers one verification request in-process, bypassing HTTP
// transport — the benchmark harness's entry point for measuring the solve
// path alone. It shares the workers, fairness, admission and request checks
// of HTTP traffic: the request's timeoutMs (clamped to MaxTimeout) bounds
// it, a proof request without a ProofDir is an error carrying http 400,
// overload sheds it (an error carrying http 429 or 503), and a ctx
// cancelled while queued is an error carrying 499.
func (s *Service) Verify(ctx context.Context, req *VerifyRequest) (*VerifyResponse, error) {
	resp, herr := s.verify(ctx, req)
	if herr != nil {
		return nil, fmt.Errorf("verify: %s (http %d)", herr.msg, herr.status)
	}
	return resp, nil
}

// Sweep answers one batched sweep in-process (see Verify).
func (s *Service) Sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	resp, herr := s.sweep(ctx, req, false)
	if herr != nil {
		return nil, fmt.Errorf("sweep: %s (http %d)", herr.msg, herr.status)
	}
	return resp, nil
}

// shedDelay is the single clamped Retry-After computation every shed path
// shares: a shed client should come back after roughly one queue-drain
// interval, whichever status told it to go away. Clamped below at 50ms so a
// zero/absurd QueueWait never advertises an immediate hammer-retry.
func (s *Service) shedDelay() time.Duration {
	d := s.cfg.QueueWait
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// unit is one scheduler work unit: its cost and its body.
type unit struct {
	cost int
	fn   func()
}

// runFlow runs units as one scheduler flow of the given weight and waits
// for them. A one-unit flow goes through sched.Flow.Do, so it runs on the
// request goroutine when a worker slot is free and nothing is queued. The
// scheduler is the admission queue: a flow refused at the queue bound is a
// 429, one whose first unit did not start within the queue wait a 503, and
// one whose ctx was cancelled while it was still queued (the client went
// away) a 499. A deadline expiring in the queue aborts nothing: the units
// run and answer inconclusive themselves.
func (s *Service) runFlow(ctx context.Context, weight int, units []unit) *handlerError {
	fl := s.sched.NewFlow(weight)
	var err error
	if len(units) == 1 {
		err = fl.Do(ctx, units[0].cost, units[0].fn)
	} else {
		for _, u := range units {
			if err = fl.Submit(u.cost, u.fn); err != nil {
				break
			}
		}
		// Drain whatever was submitted (units may be writing into the
		// response) before reporting a refusal, rather than publish a torn
		// answer.
		if werr := fl.WaitContext(ctx); err == nil {
			err = werr
		}
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sched.ErrQueueFull):
		return &handlerError{http.StatusTooManyRequests, "admission queue full"}
	case errors.Is(err, sched.ErrQueueWait):
		return &handlerError{http.StatusServiceUnavailable, "no solve slot within queue wait"}
	case errors.Is(err, sched.ErrAborted):
		return &handlerError{499, "client went away while queued"}
	default:
		return &handlerError{http.StatusServiceUnavailable, "scheduler shutting down"}
	}
}

// requestContext applies the clamped per-request deadline to parent.
func (s *Service) requestContext(parent context.Context, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req VerifyRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, fmt.Sprintf("bad verify request: %v", err)})
		return
	}
	start := time.Now()
	resp, herr := s.verify(r.Context(), &req)
	if herr != nil {
		s.writeFailure(w, herr)
		return
	}
	resp.ElapsedMs = time.Since(start).Milliseconds()
	s.countVerdict(resp.Status)
	writeJSON(w, http.StatusOK, resp)
}

// countVerdict folds one verification verdict into the service ledger.
func (s *Service) countVerdict(status string) {
	switch status {
	case "feasible":
		s.m.feasible.Add(1)
	case "infeasible":
		s.m.infeasible.Add(1)
	default:
		s.m.inconclusive.Add(1)
	}
}

// handleSweep answers one batched scenario sweep. The sweep schedules one
// work unit per encoder-compatibility group, costed by item count, so
// groups from a large sweep interleave with other requests' units under the
// scheduler's fairness policy; the ledger counts every per-item verdict.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, fmt.Sprintf("bad sweep request: %v", err)})
		return
	}
	start := time.Now()
	resp, herr := s.sweep(r.Context(), &req, false)
	if herr != nil {
		s.writeFailure(w, herr)
		return
	}
	resp.ElapsedMs = time.Since(start).Milliseconds()
	s.m.sweeps.Add(1)
	s.m.sweepItems.Add(uint64(len(resp.Items)))
	for _, item := range resp.Items {
		s.countVerdict(item.Status)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req SynthesizeRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, fmt.Sprintf("bad synthesize request: %v", err)})
		return
	}
	if req.Proof && s.cfg.ProofDir == "" {
		s.writeFailure(w, errNoProofDir)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMs)
	defer cancel()

	start := time.Now()
	resp, herr := s.synthesize(ctx, &req)
	if herr != nil {
		s.writeFailure(w, herr)
		return
	}
	resp.ElapsedMs = time.Since(start).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
}

// synthesize runs one synthesis request. Synthesis manages its own solver
// lifecycle (a persistent selection model plus per-run verification
// models), so it does not use the warm pool; it runs as a single scheduler
// unit costed and weighted by its worker count. A cube run solves on that
// many goroutines of its own while the unit's scheduler worker waits for
// them — an oversubscription of the scheduler bound, priced into the
// unit's cost.
func (s *Service) synthesize(ctx context.Context, req *SynthesizeRequest) (*SynthesizeResponse, *handlerError) {
	workers := s.cubeWorkers(req.CubeWorkers)
	if req.Synthesis.MeasurementGranular() {
		// The measurement-granular loop has no cube mode; it always runs
		// sequentially.
		workers = 1
	}
	var (
		resp *SynthesizeResponse
		herr *handlerError
	)
	if ferr := s.runFlow(ctx, workers, []unit{{workers, func() { resp, herr = s.synthesizeUnit(ctx, req, workers) }}}); ferr != nil {
		return nil, ferr
	}
	return resp, herr
}

// synthesizeUnit is the body of a synthesis work unit.
func (s *Service) synthesizeUnit(ctx context.Context, req *SynthesizeRequest, workers int) (*SynthesizeResponse, *handlerError) {
	spec := req.Synthesis
	tag := proof.UniqueName("req", "")
	if workers > 1 {
		s.m.cubeRuns.Add(1)
	} else {
		s.m.sequentialSolves.Add(1)
	}
	defer s.m.trackWorkers(workers)()
	if spec.MeasurementGranular() {
		mreq, err := spec.MeasurementRequirements()
		if err != nil {
			return nil, &handlerError{http.StatusBadRequest, err.Error()}
		}
		if req.Proof {
			mreq.ProofDir = s.cfg.ProofDir
			mreq.ProofTag = tag
		}
		arch, err := synth.SynthesizeMeasurementsContext(ctx, mreq)
		if err != nil {
			return s.synthFailure(err)
		}
		return &SynthesizeResponse{
			Status:              "found",
			SecuredMeasurements: arch.SecuredMeasurements,
			Iterations:          arch.Iterations,
			ProofFiles:          arch.ProofFiles,
		}, nil
	}
	sreq, err := spec.Requirements()
	if err != nil {
		return nil, &handlerError{http.StatusBadRequest, err.Error()}
	}
	if req.Proof {
		sreq.ProofDir = s.cfg.ProofDir
		sreq.ProofTag = tag
	}
	if workers > 1 {
		sreq.CubeWorkers = workers
	}
	arch, err := synth.SynthesizeContext(ctx, sreq)
	if err != nil {
		return s.synthFailure(err)
	}
	return &SynthesizeResponse{
		Status:       "found",
		SecuredBuses: arch.SecuredBuses,
		Iterations:   arch.Iterations,
		ProofFiles:   arch.ProofFiles,
	}, nil
}

// synthFailure maps a synthesis error. Impossibility (a proof) and
// exhaustion (inconclusive) are answers. Invalid requirements are the
// client's fault: 400. Anything else failed the run itself — a solver
// error, or a certificate that could not be written or closed — and is a
// 500; certificate failures also count in proofErrors.
func (s *Service) synthFailure(err error) (*SynthesizeResponse, *handlerError) {
	switch {
	case errors.Is(err, synth.ErrNoArchitecture):
		return &SynthesizeResponse{Status: "impossible", Why: err.Error()}, nil
	case errors.Is(err, synth.ErrBudgetExhausted),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return &SynthesizeResponse{Status: "inconclusive", Why: err.Error()}, nil
	case errors.Is(err, synth.ErrInvalidRequirements):
		return nil, &handlerError{http.StatusBadRequest, err.Error()}
	}
	// Synthesis touches the file system only to write certificates, so a
	// file-system error anywhere in the chain is a certificate failure.
	var pathErr *fs.PathError
	var linkErr *os.LinkError
	if errors.As(err, &pathErr) || errors.As(err, &linkErr) {
		s.m.proofErrors.Add(1)
	}
	return nil, &handlerError{http.StatusInternalServerError, err.Error()}
}

func (s *Service) handleProofCheck(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	if s.cfg.ProofDir == "" {
		s.writeFailure(w, errNoProofDir)
		return
	}
	var req ProofCheckRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, fmt.Sprintf("bad proofcheck request: %v", err)})
		return
	}
	// Resolve strictly inside the proof directory: certificate names only,
	// no traversal, no absolute paths.
	if req.Path == "" || filepath.IsAbs(req.Path) {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, "path must be relative to the proof directory"})
		return
	}
	clean := filepath.Clean(req.Path)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		s.writeFailure(w, &handlerError{http.StatusBadRequest, "path escapes the proof directory"})
		return
	}
	// The check is a one-unit flow: certificate checking is CPU work like
	// any solve, so it queues, is shed and is bounded by the same workers.
	var rep *proof.Report
	var err error
	path := filepath.Join(s.cfg.ProofDir, clean)
	if herr := s.runFlow(r.Context(), 1, []unit{{1, func() { rep, err = proof.CheckFile(path) }}}); herr != nil {
		s.writeFailure(w, herr)
		return
	}
	if err != nil {
		writeJSON(w, http.StatusOK, &ProofCheckResponse{Valid: false, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, &ProofCheckResponse{
		Valid:        true,
		Records:      rep.Records,
		UnsatChecks:  rep.UnsatChecks,
		TheoryLemmas: rep.TheoryLemmas,
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": int64(time.Since(s.start) / time.Second),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.snapshot(s.pool.Stats(), s.sched.Stats()))
}

// handlerError carries an HTTP status through the request pipeline.
type handlerError struct {
	status int
	msg    string
}

var errNoProofDir = &handlerError{http.StatusBadRequest, "proof requested but the server has no proof directory"}

// writeFailure answers a request that ended without a response body. A 400
// counts as a bad request, and a 429 or 503 as a shed (with Retry-After);
// anything else (a 499 for a client gone while queued, a 500) is written as
// is.
func (s *Service) writeFailure(w http.ResponseWriter, herr *handlerError) {
	switch herr.status {
	case http.StatusBadRequest:
		s.m.badRequests.Add(1)
	case http.StatusTooManyRequests:
		s.m.shed429.Add(1)
		writeShed(w, herr.status, herr.msg, s.shedDelay())
		return
	case http.StatusServiceUnavailable:
		s.m.shed503.Add(1)
		writeShed(w, herr.status, herr.msg, s.shedDelay())
		return
	}
	writeError(w, herr.status, herr.msg)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, &errorResponse{Error: msg})
}

// writeShed answers a load-shed: the request was refused, not mis-answered.
// The Retry-After header (and the mirrored JSON field) is the wait rounded
// up to whole seconds as the header grammar requires — never truncated to 0,
// which would invite an immediate retry storm; retryAfterMs carries the
// exact wait for clients that honor sub-second precision.
func writeShed(w http.ResponseWriter, status int, msg string, wait time.Duration) {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, &errorResponse{
		Error:             msg,
		RetryAfterSeconds: secs,
		RetryAfterMs:      wait.Milliseconds(),
	})
}
