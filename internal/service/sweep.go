package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"segrid/internal/core"
	"segrid/internal/pool"
	"segrid/internal/scenariofile"
	"segrid/internal/smt"
)

// This file implements the service's one check path, the batched scenario
// sweep: one request, a base attack spec, N per-item deltas. A /v1/verify
// is the one-item case. Items are planned into groups sharing a
// warm-encoder compatibility key; each group checks out ONE pooled encoder
// and answers its items back-to-back under scoped overlays — the
// serving-side analogue of the incremental encoder amortizing encode cost
// inside a process.
//
// Soundness rules, enforced by planning:
//
//   - secured sets and tightened resource bounds are a core.Overlay,
//     asserted in a solver scope;
//   - goal replacement and bound loosening change the encoded model, so the
//     item is re-specced and lands in its own group;
//   - a poisoned lease (Unknown, panic, torn scope) is discarded mid-group
//     and the item retried on a fresh throwaway encoder — the remaining
//     items re-checkout; verdicts never come from a distrusted encoder;
//   - an expired sweep deadline freezes the remaining items at inconclusive
//     with the deadline reason: a partial result is never published as a
//     definitive per-item verdict.

// sweepGroup is one encoder-compatibility class of planned items.
type sweepGroup struct {
	key pool.Key
	// sc is the group's effective scenario, built and validated once at
	// planning; the screen and fresh encoders work on copies of it.
	sc *core.Scenario
	// proof runs every item on a throwaway encoder that streams the item's
	// certificate; such a group never leases a pooled encoder.
	proof bool
	items []plannedItem
}

// plannedItem is one sweep item resolved against its group: the original
// request index plus the scoped overlay to assert.
type plannedItem struct {
	index int
	ov    core.Overlay
}

// planSweep validates the request and partitions its items into groups,
// preserving first-occurrence order; proof marks every group proof-streaming
// (see sweepGroup). All validation happens here, before any solving: each
// group's scenario is built and validated when its first item is planned
// and every overlay is range-checked against it, so a malformed item fails
// the whole sweep with 400 instead of surfacing mid-batch.
func (s *Service) planSweep(req *SweepRequest, proof bool) ([]*sweepGroup, *handlerError) {
	if len(req.Items) == 0 {
		return nil, &handlerError{http.StatusBadRequest, "sweep has no items"}
	}
	if len(req.Items) > s.cfg.MaxSweepItems {
		return nil, &handlerError{http.StatusBadRequest,
			fmt.Sprintf("sweep has %d items, server maximum is %d", len(req.Items), s.cfg.MaxSweepItems)}
	}
	var (
		order  []*sweepGroup
		byKey  = make(map[pool.Key]*sweepGroup)
		sysErr = func(i int, err error) *handlerError {
			return &handlerError{http.StatusBadRequest, fmt.Sprintf("sweep item %d: %v", i, err)}
		}
	)
	// planItem changes only Targets, MaxMeasurements and MaxBuses, so those
	// three values name an item's effective spec; memoizing its group by
	// them marshals the whole spec into a pool key once per distinct delta
	// instead of once per item. Targets render alike when nil or empty, as
	// they marshal alike (omitempty).
	type delta struct {
		targets           string
		maxMeas, maxBuses int
	}
	memo := make(map[delta]*sweepGroup)
	var buf []byte
	for i := range req.Items {
		eff, ov := planItem(&req.Attack, &req.Items[i])
		buf = buf[:0]
		for _, t := range eff.Targets {
			buf = strconv.AppendInt(append(buf, ','), int64(t), 10)
		}
		d := delta{string(buf), eff.MaxMeasurements, eff.MaxBuses}
		g := memo[d]
		if g == nil {
			key, err := poolKey(eff)
			if err != nil {
				return nil, sysErr(i, err)
			}
			var ok bool
			if g, ok = byKey[key]; !ok {
				sc, err := eff.Scenario()
				if err == nil {
					err = sc.Validate()
				}
				if err != nil {
					return nil, sysErr(i, err)
				}
				g = &sweepGroup{key: key, sc: sc, proof: proof}
				byKey[key] = g
				order = append(order, g)
			}
			memo[d] = g
		}
		if err := ov.Validate(g.sc.System()); err != nil {
			return nil, sysErr(i, err)
		}
		g.items = append(g.items, plannedItem{index: i, ov: ov})
	}
	return order, nil
}

// planItem resolves one item delta against the base spec: deltas expressible
// as feasible-set-shrinking scoped constraints go into the overlay; deltas
// that change the encoded model (goal replacement, bound lifting/loosening)
// produce a derived spec. Returns the effective spec (the base itself when
// nothing re-specs) and the overlay, which carries a negative bound for
// Overlay.Validate to reject.
func planItem(base *scenariofile.AttackSpec, item *SweepItem) (*scenariofile.AttackSpec, core.Overlay) {
	ov := core.Overlay{
		SecuredBuses:        item.SecuredBuses,
		SecuredMeasurements: item.SecuredMeasurements,
	}
	eff := base
	respec := func() {
		if eff == base {
			c := *base
			eff = &c
		}
	}
	if item.Targets != nil {
		respec()
		eff.Targets = item.Targets
	}
	if item.MaxAlteredMeasurements != nil {
		switch v := *item.MaxAlteredMeasurements; {
		case v == 0 || (base.MaxMeasurements > 0 && v > base.MaxMeasurements):
			// Lifting or loosening the base bound: base constraints cannot
			// be retracted in a scope, so the item needs its own encoder.
			respec()
			eff.MaxMeasurements = v
		case v != base.MaxMeasurements:
			ov.MaxAltered = v
		}
	}
	if item.MaxCompromisedBuses != nil {
		switch v := *item.MaxCompromisedBuses; {
		case v == 0 || (base.MaxBuses > 0 && v > base.MaxBuses):
			respec()
			eff.MaxBuses = v
		case v != base.MaxBuses:
			ov.MaxBuses = v
		}
	}
	return eff, ov
}

// sweep plans and executes one sweep request (proof as in planSweep). It is
// the entry point HTTP and in-process verifies and sweeps share, so the
// request checks live here: a proof request needs a proof directory, and
// the request's clamped deadline bounds everything after decoding.
// Planning runs on the request goroutine, then each group becomes one
// scheduler work unit costed by its item count, which screens and checks
// the group's items. Group units from one sweep run concurrently when
// workers are free and interleave with other requests' units under the
// fairness policy. Proof requests explicitly ask for solver artifacts and
// are never screened.
func (s *Service) sweep(parent context.Context, req *SweepRequest, proof bool) (*SweepResponse, *handlerError) {
	if proof && s.cfg.ProofDir == "" {
		return nil, errNoProofDir
	}
	ctx, cancel := s.requestContext(parent, req.TimeoutMs)
	defer cancel()
	groups, herr := s.planSweep(req, proof)
	if herr != nil {
		return nil, herr
	}
	resp := &SweepResponse{
		Items:  make([]*VerifyResponse, len(req.Items)),
		Groups: len(groups),
	}
	screen := s.screenEnabled(req.Screen) && !proof
	var builds atomic.Int64
	units := make([]unit, len(groups))
	for i, g := range groups {
		units[i] = unit{len(g.items), func() { s.runGroup(ctx, g, screen, resp.Items, &builds) }}
	}
	if herr := s.runFlow(ctx, 1, units); herr != nil {
		return nil, herr
	}
	resp.EncoderBuilds = int(builds.Load())
	return resp, nil
}

// runGroup is the body of one group's work unit: it answers the group's
// items into their slots of out. With screen set, each item first goes to
// the LP screening tier; a definitive screen answers it. The
// rest share a single pooled lease, checked out at the first unscreened
// item — a fully screened group builds no encoder — with the warm→fresh
// retry ladder per item:
//
//  0. the leased encoder's recent attacks, re-checked by the exact
//     evaluator under the item's overlay (reuse.go) — no solver at all;
//  1. the warm pooled encoder, with the item's overlay asserted in a solver
//     scope — the cheap path;
//  2. on a retryable failure (budget kind, injected interruption, panic,
//     scope mismatch), a fresh per-check encoder — the trustworthy path;
//  3. only then an inconclusive answer carrying the machine-readable
//     reason.
//
// core.Model.CheckContext replays every feasible verdict of rungs 1 and 2
// before it is published; a refused one is inconclusive, not retried, and
// quarantines a warm encoder.
//
// A non-retryable failure (the request's own deadline or cancellation)
// short-circuits to inconclusive: retrying against an expired deadline
// cannot succeed. A poisoned lease is discarded mid-group and the next item
// re-checks out; when every live encoder is leased an item pays for a
// throwaway build; once the deadline expires every remaining item is
// inconclusive. At no point does a failure turn into a guessed verdict.
// Groups of one sweep may run concurrently on different scheduler workers;
// they write disjoint slots and count encoder builds through the shared
// atomic.
func (s *Service) runGroup(ctx context.Context, g *sweepGroup, screen bool, out []*VerifyResponse, builds *atomic.Int64) {
	var lease *pool.Lease[*warmModel]
	defer func() {
		if lease != nil {
			_ = lease.Return()
		}
	}()
	check := func(ov core.Overlay) *VerifyResponse {
		if err := ctx.Err(); err != nil {
			return ctxExpired(err)
		}
		if lease == nil && !g.proof {
			var err error
			switch lease, err = s.pool.Checkout(ctx, g.key); {
			case err == nil:
				if !lease.Warm() {
					builds.Add(1)
				}
			case errors.Is(err, pool.ErrExhausted):
				// Every live encoder is leased: this item pays for a
				// throwaway build below instead of failing.
			case ctx.Err() != nil:
				// The cold build was abandoned by the request's own
				// deadline: the item is expired, not failed.
				return ctxExpired(ctx.Err())
			default:
				return itemFailure(err.Error())
			}
		}
		if lease == nil {
			return s.verifyFresh(ctx, g, ov, 0, builds)
		}
		warm, wm := lease.Warm(), lease.Item
		if w := s.reuseWitness(wm, ov); w != nil {
			r := w.response(warm, 0)
			r.Reused = true
			return r
		}
		res, poisoned, err := s.checkWarm(ctx, wm.model, ov)
		var w *witness
		if res != nil && res.Feasible {
			w = wm.remember(res)
		}
		if poisoned {
			s.m.poisoned.Add(1)
			_ = lease.Discard()
			lease = nil
		}
		switch {
		case err != nil:
			return itemFailure(err.Error())
		case w != nil:
			return w.response(warm, 0)
		case res != nil && !res.Inconclusive:
			return s.buildResponse(res, warm, 0)
		case (res == nil || res.Stats.Unknown.Retryable()) && ctx.Err() == nil:
			// A panic (nil result) is encoder trouble, not request trouble.
			s.m.retries.Add(1)
			return s.verifyFresh(ctx, g, ov, 1, builds)
		default:
			return s.buildResponse(res, warm, 0)
		}
	}
	for _, it := range g.items {
		start := time.Now()
		var r *VerifyResponse
		if screen {
			r = s.screenItem(ctx, g.sc, it.ov)
		}
		if r == nil {
			r = check(it.ov)
		}
		r.ElapsedMs = time.Since(start).Milliseconds()
		out[it.index] = r
	}
}

// ctxExpired is the verdict-free answer for checks the request deadline (or
// a client cancellation) ended before a verdict: inconclusive with the
// machine-readable reason. Frozen items and deadlines that land during an
// encoder build both use it.
func ctxExpired(err error) *VerifyResponse {
	reason := smt.ReasonCancelled
	if errors.Is(err, context.DeadlineExceeded) {
		reason = smt.ReasonDeadline
	}
	return &VerifyResponse{
		Status:        "inconclusive",
		Why:           fmt.Sprintf("deadline or cancellation ended this check before a verdict: %v", err),
		UnknownReason: unknownToken(reason),
	}
}

// itemFailure is the verdict-free answer for an item whose solve failed in a
// way that is not a scenario verdict (internal error, encoder trouble past
// the retry ladder). The sweep keeps going; the item is inconclusive.
func itemFailure(msg string) *VerifyResponse {
	return &VerifyResponse{
		Status:        "inconclusive",
		Why:           msg,
		UnknownReason: unknownToken(smt.ReasonOther),
	}
}
