package service

import (
	"sync/atomic"

	"segrid/internal/pool"
	"segrid/internal/sched"
)

// metrics are the service's monotonic counters. All fields are updated with
// atomics; snapshot renders them for GET /metrics.
type metrics struct {
	requests    atomic.Uint64 // every request that reached a handler
	badRequests atomic.Uint64 // rejected before/without a solve
	shed429     atomic.Uint64 // admission queue full
	shed503     atomic.Uint64 // no solve slot within the queue wait

	feasible     atomic.Uint64
	infeasible   atomic.Uint64
	inconclusive atomic.Uint64

	retries     atomic.Uint64 // warm→fresh fallbacks taken
	poisoned    atomic.Uint64 // encoders quarantined after a check
	panics      atomic.Uint64 // solver panics contained
	proofErrors atomic.Uint64 // certificate streams that failed

	sweeps         atomic.Uint64 // /v1/sweep requests answered
	sweepItems     atomic.Uint64 // per-item verdicts those sweeps produced
	encodersClosed atomic.Uint64 // encoders torn down via the pool drop hook

	cubeRuns         atomic.Uint64 // synthesis runs in cube-and-conquer mode
	sequentialSolves atomic.Uint64 // solves answered by one sequential instance
	inFlightWorkers  atomic.Int64  // solver workers currently running, all modes

	screenAccepts      atomic.Uint64 // LP screen answered feasible (witness replayed)
	screenRejects      atomic.Uint64 // LP screen answered infeasible (Farkas certified)
	screenInconclusive atomic.Uint64 // screens that fell through to the SMT tier
	screenNanos        atomic.Uint64 // total wall time spent screening, definitive or not

	witnessReuses         atomic.Uint64 // warm checks answered from the encoder's attack ring
	witnessReuseMisses    atomic.Uint64 // warm checks the ring could not answer (solver ran)
	feasibleReplayRejects atomic.Uint64 // feasible SMT verdicts the exact evaluator refused
}

// trackWorkers bumps the in-flight-workers gauge for one solve and returns
// the matching decrement; callers defer it around the solver call.
func (m *metrics) trackWorkers(n int) func() {
	m.inFlightWorkers.Add(int64(n))
	return func() { m.inFlightWorkers.Add(-int64(n)) }
}

// Metrics is the GET /metrics body.
type Metrics struct {
	Requests     uint64 `json:"requests"`
	BadRequests  uint64 `json:"badRequests"`
	Shed429      uint64 `json:"shed429"`
	Shed503      uint64 `json:"shed503"`
	Feasible     uint64 `json:"feasible"`
	Infeasible   uint64 `json:"infeasible"`
	Inconclusive uint64 `json:"inconclusive"`
	Retries      uint64 `json:"retries"`
	Poisoned     uint64 `json:"poisoned"`
	Panics       uint64 `json:"panics"`
	ProofErrors  uint64 `json:"proofErrors"`

	CubeRuns         uint64 `json:"cubeRuns"`
	SequentialSolves uint64 `json:"sequentialSolves"`
	InFlightWorkers  int64  `json:"inFlightWorkers"`

	Sweeps         uint64 `json:"sweeps"`
	SweepItems     uint64 `json:"sweepItems"`
	EncodersClosed uint64 `json:"encodersClosed"`

	// Screening-tier figures: accepts/rejects are definitive answers the
	// SMT tier never saw; inconclusive screens fell through. ScreenNanos is
	// the total wall time spent screening — divide by the three counters'
	// sum for the mean screening latency.
	ScreenAccepts      uint64 `json:"screenAccepts"`
	ScreenRejects      uint64 `json:"screenRejects"`
	ScreenInconclusive uint64 `json:"screenInconclusive"`
	ScreenNanos        uint64 `json:"screenNanos"`

	// ScreenCacheHits and ScreenCacheMisses always read 0: there is no
	// screen-verdict cache, every screened item runs the LP tier. They stay
	// on the wire because segridbench reads them.
	ScreenCacheHits   uint64 `json:"screenCacheHits"`
	ScreenCacheMisses uint64 `json:"screenCacheMisses"`

	// Witness-reuse figures: every check that reaches a leased warm encoder
	// first tries that encoder's recent attacks; reuses were answered from
	// them without the solver, misses fell through to it.
	// FeasibleReplayRejects counts feasible SMT verdicts the exact
	// evaluator refused (answered inconclusive); it should read 0.
	WitnessReuses         uint64 `json:"witnessReuses"`
	WitnessReuseMisses    uint64 `json:"witnessReuseMisses"`
	FeasibleReplayRejects uint64 `json:"feasibleReplayRejects"`

	// Sched reports the work-unit scheduler: units run (UnitsInline of them
	// on their own request goroutine, see sched.Flow.Do), units discarded by
	// admission aborts, requests waiting for a first unit (what MaxQueue
	// bounds), and the current unit queue depth and occupancy.
	Sched struct {
		FlowsOpened  uint64 `json:"flowsOpened"`
		UnitsRun     uint64 `json:"unitsRun"`
		UnitsInline  uint64 `json:"unitsInline"`
		UnitsAborted uint64 `json:"unitsAborted"`
		Waiting      int    `json:"waiting"`
		Queued       int    `json:"queued"`
		Running      int    `json:"running"`
	} `json:"sched"`

	Pool struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		BuildFailures uint64 `json:"buildFailures"`
		Returns       uint64 `json:"returns"`
		Discards      uint64 `json:"discards"`
		ResetFailures uint64 `json:"resetFailures"`
		Evictions     uint64 `json:"evictions"`
		Live          int    `json:"live"`
		Idle          int    `json:"idle"`
	} `json:"pool"`
}

func (m *metrics) snapshot(ps pool.Stats, ss sched.Stats) *Metrics {
	out := &Metrics{
		Requests:     m.requests.Load(),
		BadRequests:  m.badRequests.Load(),
		Shed429:      m.shed429.Load(),
		Shed503:      m.shed503.Load(),
		Feasible:     m.feasible.Load(),
		Infeasible:   m.infeasible.Load(),
		Inconclusive: m.inconclusive.Load(),
		Retries:      m.retries.Load(),
		Poisoned:     m.poisoned.Load(),
		Panics:       m.panics.Load(),
		ProofErrors:  m.proofErrors.Load(),

		CubeRuns:         m.cubeRuns.Load(),
		SequentialSolves: m.sequentialSolves.Load(),
		InFlightWorkers:  m.inFlightWorkers.Load(),

		Sweeps:         m.sweeps.Load(),
		SweepItems:     m.sweepItems.Load(),
		EncodersClosed: m.encodersClosed.Load(),

		ScreenAccepts:      m.screenAccepts.Load(),
		ScreenRejects:      m.screenRejects.Load(),
		ScreenInconclusive: m.screenInconclusive.Load(),
		ScreenNanos:        m.screenNanos.Load(),

		WitnessReuses:         m.witnessReuses.Load(),
		WitnessReuseMisses:    m.witnessReuseMisses.Load(),
		FeasibleReplayRejects: m.feasibleReplayRejects.Load(),
	}
	out.Sched.FlowsOpened = ss.FlowsOpened
	out.Sched.UnitsRun = ss.UnitsRun
	out.Sched.UnitsInline = ss.UnitsInline
	out.Sched.UnitsAborted = ss.UnitsAborted
	out.Sched.Waiting = ss.Waiting
	out.Sched.Queued = ss.Queued
	out.Sched.Running = ss.Running
	out.Pool.Hits = ps.Hits
	out.Pool.Misses = ps.Misses
	out.Pool.BuildFailures = ps.BuildFailures
	out.Pool.Returns = ps.Returns
	out.Pool.Discards = ps.Discards
	out.Pool.ResetFailures = ps.ResetFailures
	out.Pool.Evictions = ps.Evictions
	out.Pool.Live = ps.Live
	out.Pool.Idle = ps.Idle
	return out
}
