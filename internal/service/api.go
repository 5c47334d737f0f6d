package service

import (
	"encoding/json"
	"fmt"
	"io"

	"segrid/internal/pool"
	"segrid/internal/scenariofile"
	"segrid/internal/smt"
)

// VerifyRequest is the body of POST /v1/verify: an attack scenario in the
// scenariofile format plus per-request service controls.
type VerifyRequest struct {
	// Attack is the scenario to verify, exactly as ufdiverify reads it.
	Attack scenariofile.AttackSpec `json:"attack"`

	// SecuredBuses and SecuredMeasurements overlay extra protections on the
	// scenario for this request only. They are asserted in a solver scope on
	// top of the warm encoder, so requests differing only in overlay share
	// one pooled encoder — the synthesis-style what-if query the warm pool
	// exists for.
	SecuredBuses        []int `json:"securedBuses,omitempty"`
	SecuredMeasurements []int `json:"securedMeasurements,omitempty"`

	// TimeoutMs bounds the request wall clock (0: the server default). The
	// deadline propagates into the solver; an expired request reports
	// inconclusive, never a guessed verdict.
	TimeoutMs int `json:"timeoutMs,omitempty"`

	// Proof requests an UNSAT certificate when the attack is infeasible.
	// Proof-producing checks always run on a fresh encoder (a certificate
	// stream captures a solver's whole lifetime, which is incompatible with
	// warm reuse); the certificate is published atomically under the
	// server's proof directory only when complete and the verdict is
	// infeasible.
	Proof bool `json:"proof,omitempty"`

	// Screen overrides the server's LP-relaxation screening default for
	// this request: true runs the screen even on a server with screening
	// off, false forces the full SMT pipeline (the ablation switch), nil
	// keeps the server configuration. Proof requests are never screened —
	// they explicitly ask for solver artifacts.
	Screen *bool `json:"screen,omitempty"`
}

// VerifyResponse is the body of a completed verification.
type VerifyResponse struct {
	// Status is "feasible", "infeasible" or "inconclusive".
	Status string `json:"status"`

	// Why and UnknownReason explain an inconclusive verdict: Why is the
	// human-readable cause, UnknownReason the machine-readable class
	// (smt.UnknownReason tokens, e.g. "budget-conflicts", "deadline").
	Why           string `json:"why,omitempty"`
	UnknownReason string `json:"unknownReason,omitempty"`

	// Warm reports whether the answering encoder came from the warm pool;
	// Retries counts fallback attempts before this answer (0: first try).
	Warm    bool `json:"warm"`
	Retries int  `json:"retries"`

	// Screened reports that the LP-relaxation screening tier answered this
	// request definitively — no encoder was built or leased and the SMT
	// solver never ran. Screened verdicts are certifying: an infeasible
	// answer is backed by rational Farkas certificates the screen checked,
	// a feasible one by an exact replay of the relaxation vertex against
	// the full model's semantics.
	Screened bool `json:"screened,omitempty"`

	// Reused reports that a recent attack found on the answering warm
	// encoder answered this request: the exact evaluator accepted it on
	// the scenario with this request's protections folded in, and the SMT
	// solver never ran.
	Reused bool `json:"reused,omitempty"`

	// Attack vector, present when Status is "feasible".
	AlteredMeasurements []int             `json:"alteredMeasurements,omitempty"`
	CompromisedBuses    []int             `json:"compromisedBuses,omitempty"`
	ExcludedLines       []int             `json:"excludedLines,omitempty"`
	IncludedLines       []int             `json:"includedLines,omitempty"`
	StateChanges        map[string]string `json:"stateChanges,omitempty"`

	// ProofFile is the published certificate path (infeasible + proof
	// requested + stream completed). ProofError reports a certificate
	// stream that failed; the verdict itself is unaffected.
	ProofFile  string `json:"proofFile,omitempty"`
	ProofError string `json:"proofError,omitempty"`

	ElapsedMs int64 `json:"elapsedMs"`
}

// SweepRequest is the body of POST /v1/sweep: one base attack scenario plus
// a list of per-item deltas — the Algorithm 1 / Fig. 4–5 workload shape,
// where a whole family of (grid, goal, resource-bound) scenarios differs
// only in small per-scenario knobs. The service groups items by warm-encoder
// compatibility key and runs each group back-to-back on a single pooled
// encoder, so an N-item family that a batch-unaware client would answer
// with N encoder builds costs one build per distinct group.
//
// Admission control sees a sweep as one request; each group is one
// scheduler work unit whose items solve sequentially on the group's
// encoder. A /v1/verify is answered as the one-item case of the same path.
type SweepRequest struct {
	// Attack is the base scenario every item starts from.
	Attack scenariofile.AttackSpec `json:"attack"`

	// Items are the per-scenario deltas, answered in order.
	Items []SweepItem `json:"items"`

	// TimeoutMs bounds the whole sweep's wall clock (0: the server
	// default). When the deadline expires mid-sweep, items already decided
	// keep their verdicts and every remaining item reports inconclusive
	// with the deadline reason — never a partial guess.
	TimeoutMs int `json:"timeoutMs,omitempty"`

	// Screen overrides the server's LP-relaxation screening default for
	// every item of this sweep (same convention as VerifyRequest.Screen).
	// Items the screen answers definitively carry "screened": true and
	// never occupy their group's encoder.
	Screen *bool `json:"screen,omitempty"`
}

// SweepItem is one scenario delta against the sweep's base attack spec.
//
// Secured sets and tightened resource bounds are a core.Overlay asserted in
// a solver scope on the group's warm encoder. Goal replacement and bound
// loosening change the encoded model itself, so such items land in their
// own (topology, shape) group with a separately built encoder — same
// verdicts as N sequential /v1/verify calls, just grouped as tightly as
// soundness allows.
type SweepItem struct {
	// SecuredBuses / SecuredMeasurements add integrity protections for this
	// item only (the same overlay semantics as VerifyRequest).
	SecuredBuses        []int `json:"securedBuses,omitempty"`
	SecuredMeasurements []int `json:"securedMeasurements,omitempty"`

	// MaxAlteredMeasurements / MaxCompromisedBuses override the base
	// spec's resource bounds for this item. nil inherits the base bound; 0
	// lifts it (unbounded). A bound tighter than the base (or a bound on
	// an unbounded base) is answered in-scope on the group encoder; a
	// looser bound re-groups the item under its own spec.
	MaxAlteredMeasurements *int `json:"maxAlteredMeasurements,omitempty"`
	MaxCompromisedBuses    *int `json:"maxCompromisedBuses,omitempty"`

	// Targets replaces the base spec's target-state set for this item
	// (nil inherits). Goal changes always re-group.
	Targets []int `json:"targets,omitempty"`
}

// SweepResponse is the body of a completed sweep.
type SweepResponse struct {
	// Items holds one VerifyResponse per request item, in request order.
	// Per-item ElapsedMs is the item's own solve time.
	Items []*VerifyResponse `json:"items"`

	// Groups is the number of distinct encoder-compatibility groups the
	// items collapsed into; EncoderBuilds counts cold encoder builds the
	// sweep actually performed (groups served warm from the pool build
	// nothing).
	Groups        int `json:"groups"`
	EncoderBuilds int `json:"encoderBuilds"`

	ElapsedMs int64 `json:"elapsedMs"`
}

// SynthesizeRequest is the body of POST /v1/synthesize: a synthesis spec in
// the scenariofile format plus service controls.
type SynthesizeRequest struct {
	Synthesis scenariofile.SynthesisSpec `json:"synthesis"`
	TimeoutMs int                        `json:"timeoutMs,omitempty"`
	// Proof streams per-attack-model UNSAT certificates to the server's
	// proof directory, tagged with the request id.
	Proof bool `json:"proof,omitempty"`

	// CubeWorkers overrides the server's cube-and-conquer worker count for
	// this bus-granular synthesis request: > 1 fans the search across that
	// many workers, 1 forces the sequential loop, < 0 picks the host
	// default, 0 keeps the server configuration. Always clamped to the
	// server's per-request maximum; ignored by measurement-granular
	// synthesis.
	CubeWorkers int `json:"cubeWorkers,omitempty"`
}

// SynthesizeResponse is the body of a completed synthesis run.
type SynthesizeResponse struct {
	// Status is "found", "impossible" (proof that no architecture exists)
	// or "inconclusive" (search gave up: iteration/time budget, deadline).
	Status string `json:"status"`
	Why    string `json:"why,omitempty"`

	SecuredBuses        []int `json:"securedBuses,omitempty"`
	SecuredMeasurements []int `json:"securedMeasurements,omitempty"`
	Iterations          int   `json:"iterations,omitempty"`

	ProofFiles []string `json:"proofFiles,omitempty"`
	ElapsedMs  int64    `json:"elapsedMs"`
}

// ProofCheckRequest is the body of POST /v1/proofcheck. Path is resolved
// inside the server's proof directory; absolute paths and traversal outside
// it are rejected.
type ProofCheckRequest struct {
	Path string `json:"path"`
}

// ProofCheckResponse reports an independent certificate re-check.
type ProofCheckResponse struct {
	Valid        bool   `json:"valid"`
	Error        string `json:"error,omitempty"`
	Records      int    `json:"records,omitempty"`
	UnsatChecks  int    `json:"unsatChecks,omitempty"`
	TheoryLemmas int    `json:"theoryLemmas,omitempty"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429/503 shed responses (also sent as a
	// Retry-After header): the request was not processed and may be
	// retried. The header and this field are whole seconds rounded up (the
	// Retry-After grammar requires integral seconds); RetryAfterMs carries
	// the undistorted wait so sub-second queue drains are not advertised as
	// a full second to clients that can use the precision.
	RetryAfterSeconds int   `json:"retryAfterSeconds,omitempty"`
	RetryAfterMs      int64 `json:"retryAfterMs,omitempty"`
}

// decodeStrict decodes JSON rejecting unknown fields, mirroring the
// scenariofile contract: a typo must fail loudly, not silently weaken the
// attack model being analyzed.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// poolKey is the warm-encoder compatibility key of spec: Topology names the
// built-in case (empty for a custom system, whose lines are part of the
// spec) and Shape is the spec's canonical JSON, from which buildModel
// decodes the spec again on a cold build. Per-request overlays (secured
// buses / measurements, tightened bounds) are applied in a solver scope and
// deliberately not part of the key, so two requests share an encoder
// exactly when their specs are field-for-field identical.
func poolKey(spec *scenariofile.AttackSpec) (pool.Key, error) {
	canon, err := json.Marshal(spec)
	if err != nil {
		return pool.Key{}, err
	}
	return pool.Key{Topology: spec.Case, Shape: string(canon)}, nil
}

// unknownToken maps an smt reason to its wire token, "other" for
// unclassified causes.
func unknownToken(r smt.UnknownReason) string {
	if s := r.String(); s != "" {
		return s
	}
	return smt.ReasonOther.String()
}
