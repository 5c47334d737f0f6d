package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"segrid/internal/pool"
	"segrid/internal/scenariofile"
	"segrid/internal/sched"
	"segrid/internal/smt"
)

// This file implements the batched scenario sweep: one request, a base
// attack spec, N per-item deltas. Items are planned into groups sharing a
// warm-encoder compatibility key; each group checks out ONE pooled encoder
// and answers its items back-to-back through the same scoped-overlay
// machinery /v1/verify uses — the serving-side analogue of the incremental
// encoder amortizing encode cost inside a process.
//
// Soundness rules, enforced by planning:
//
//   - secured sets and tightened resource bounds are scoped overlays (they
//     only shrink the feasible set; Push/Pop retracts them exactly);
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
	key   pool.Key
	spec  *scenariofile.AttackSpec // effective spec the group's encoder is built from
	fresh bool                     // key-hash collision: run items on throwaway encoders
	items []plannedItem
}

// plannedItem is one sweep item resolved against its group: the original
// request index plus the scoped overlay to assert.
type plannedItem struct {
	index int
	ov    overlay
}

// planSweep validates the request and partitions its items into groups,
// preserving first-occurrence order. All validation happens here, before
// any solving: a malformed item fails the whole sweep with 400 instead of
// surfacing mid-batch.
func (s *Service) planSweep(req *SweepRequest) ([]*sweepGroup, *handlerError) {
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
	for i := range req.Items {
		item := &req.Items[i]
		eff, ov, err := planItem(&req.Attack, item)
		if err != nil {
			return nil, sysErr(i, err)
		}
		key, herr := s.keyFor(eff)
		if herr != nil {
			return nil, &handlerError{herr.status, fmt.Sprintf("sweep item %d: %s", i, herr.msg)}
		}
		fresh := key == (pool.Key{})
		g, ok := byKey[key]
		if !ok || fresh {
			// Collision groups are never merged: each collided item runs on
			// its own throwaway encoder.
			g = &sweepGroup{key: key, spec: eff, fresh: fresh}
			if !fresh {
				byKey[key] = g
			}
			order = append(order, g)
		}
		g.items = append(g.items, plannedItem{index: i, ov: ov})
	}
	// Validate every group's effective spec and overlay ranges up front, so
	// group execution cannot hit a caller error mid-batch.
	for _, g := range order {
		sc, err := g.spec.Scenario()
		if err != nil {
			return nil, sysErr(g.items[0].index, err)
		}
		sys := sc.System()
		for _, it := range g.items {
			for _, j := range it.ov.securedBuses {
				if j < 1 || j > sys.Buses {
					return nil, sysErr(it.index, fmt.Errorf("secured bus %d out of range 1..%d", j, sys.Buses))
				}
			}
			for _, id := range it.ov.securedMeasurements {
				if id < 1 || id > sys.NumMeasurements() {
					return nil, sysErr(it.index, fmt.Errorf("secured measurement %d out of range 1..%d", id, sys.NumMeasurements()))
				}
			}
		}
	}
	return order, nil
}

// planItem resolves one item delta against the base spec: deltas expressible
// as feasible-set-shrinking scoped constraints go into the overlay; deltas
// that change the encoded model (goal replacement, bound lifting/loosening)
// produce a derived spec. Returns the effective spec (the base itself when
// nothing re-specs — pointer identity is what groups items) and the overlay.
func planItem(base *scenariofile.AttackSpec, item *SweepItem) (*scenariofile.AttackSpec, overlay, error) {
	ov := overlay{
		securedBuses:        item.SecuredBuses,
		securedMeasurements: item.SecuredMeasurements,
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
		case v < 0:
			return nil, ov, fmt.Errorf("maxAlteredMeasurements must be >= 0, got %d", v)
		case v == 0 || (base.MaxMeasurements > 0 && v > base.MaxMeasurements):
			// Lifting or loosening the base bound: base constraints cannot
			// be retracted in a scope, so the item needs its own encoder.
			respec()
			eff.MaxMeasurements = v
		case v != base.MaxMeasurements:
			ov.maxAltered = v // tightening: sound as a scoped constraint
		}
	}
	if item.MaxCompromisedBuses != nil {
		switch v := *item.MaxCompromisedBuses; {
		case v < 0:
			return nil, ov, fmt.Errorf("maxCompromisedBuses must be >= 0, got %d", v)
		case v == 0 || (base.MaxBuses > 0 && v > base.MaxBuses):
			respec()
			eff.MaxBuses = v
		case v != base.MaxBuses:
			ov.maxBuses = v
		}
	}
	return eff, ov, nil
}

// sweep plans and executes one sweep request: planning and the screening
// tier run on the request goroutine (the screen-verdict cache is consulted
// before anything is scheduled), then each group with unscreened items
// becomes one scheduler work unit costed by its item count. Group units
// from one sweep run concurrently when workers are free and interleave with
// other requests' units under the fairness policy — a sweep no longer
// monopolizes one opaque solve slot for its whole batch. admit follows the
// flow-admission contract described on Service.verify.
func (s *Service) sweep(ctx context.Context, req *SweepRequest, admit func(*sched.Flow) *handlerError) (*SweepResponse, *handlerError) {
	if admit == nil {
		admit = func(*sched.Flow) *handlerError { return nil }
	}
	groups, herr := s.planSweep(req)
	if herr != nil {
		_ = admit(nil)
		return nil, herr
	}
	resp := &SweepResponse{
		Items:  make([]*VerifyResponse, len(req.Items)),
		Groups: len(groups),
	}
	if s.screenEnabled(req.Screen) {
		// Screen items up front; groups keep only what the screen could not
		// answer. A fully screened sweep schedules nothing at all.
		remaining := groups[:0]
		for _, g := range groups {
			unscreened := g.items[:0]
			for _, it := range g.items {
				start := time.Now()
				if r := s.screenItem(ctx, g.spec, &it.ov); r != nil {
					r.ElapsedMs = time.Since(start).Milliseconds()
					resp.Items[it.index] = r
					continue
				}
				unscreened = append(unscreened, it)
			}
			g.items = unscreened
			if len(g.items) > 0 {
				remaining = append(remaining, g)
			}
		}
		groups = remaining
	}
	if len(groups) == 0 {
		_ = admit(nil)
		return resp, nil
	}
	fl := s.sched.NewFlow(1)
	var builds atomic.Int64
	for _, g := range groups {
		g := g
		if err := fl.Submit(len(g.items), func() { s.runGroup(ctx, g, resp, &builds) }); err != nil {
			// Scheduler closing mid-request: drain whatever was already
			// submitted (units may be writing into resp), then shed rather
			// than publish a torn sweep.
			fl.Wait()
			_ = admit(nil)
			return nil, &handlerError{http.StatusServiceUnavailable, "scheduler shutting down"}
		}
	}
	if aerr := admit(fl); aerr != nil {
		return nil, aerr
	}
	fl.Wait()
	resp.EncoderBuilds = int(builds.Load())
	return resp, nil
}

// runGroup is the body of one sweep group's work unit: it answers the
// group's items on a single pooled lease, handling mid-group poisoning
// (discard + re-checkout), pool exhaustion (per-item fresh fallback) and
// deadline expiry (remaining items inconclusive). Groups of one sweep may
// run concurrently on different scheduler workers; they write disjoint
// resp.Items slots and count encoder builds through the shared atomic.
// Screening already happened at planning time, on the request goroutine.
func (s *Service) runGroup(ctx context.Context, g *sweepGroup, resp *SweepResponse, builds *atomic.Int64) {
	var lease *pool.Lease[*warmModel]
	settle := func(poisoned bool) {
		if lease == nil {
			return
		}
		if poisoned {
			s.m.poisoned.Add(1)
			_ = lease.Discard()
		} else {
			_ = lease.Return()
		}
		lease = nil
	}
	defer settle(false)

	for _, it := range g.items {
		if err := ctx.Err(); err != nil {
			resp.Items[it.index] = ctxExpired(err)
			continue
		}
		start := time.Now()
		if g.fresh {
			resp.Items[it.index] = s.sweepFresh(ctx, g, &it, 0, start, builds)
			continue
		}
		if lease == nil {
			var err error
			lease, err = s.pool.Checkout(ctx, g.key)
			if errors.Is(err, pool.ErrExhausted) {
				// The pool is full of other requests' encoders; this item
				// pays for a throwaway build instead of failing the sweep.
				resp.Items[it.index] = s.sweepFresh(ctx, g, &it, 0, start, builds)
				continue
			}
			if err != nil {
				if ctx.Err() != nil {
					// The cold build was abandoned by the sweep's own
					// deadline; the item is expired, not failed.
					resp.Items[it.index] = ctxExpired(ctx.Err())
					continue
				}
				resp.Items[it.index] = itemFailure(err.Error(), start)
				continue
			}
			if !lease.Warm() {
				builds.Add(1)
			}
		}
		warm := lease.Warm()
		res, herr, poisoned := s.checkWarm(ctx, lease.Item.model, &it.ov)
		if poisoned {
			// The lease is settled right here; a healthy lease stays out
			// for the group's remaining items.
			settle(true)
		}
		switch {
		case herr != nil:
			// Planning validated the overlay, so this is encoder/internal
			// trouble; the item reports it without a verdict.
			resp.Items[it.index] = itemFailure(herr.msg, start)
		case res != nil && !res.Inconclusive:
			r := s.buildResponse(res, warm, 0)
			r.ElapsedMs = time.Since(start).Milliseconds()
			resp.Items[it.index] = r
		default:
			retryable := res == nil || res.Stats.Unknown.Retryable()
			if retryable && ctx.Err() == nil {
				s.m.retries.Add(1)
				resp.Items[it.index] = s.sweepFresh(ctx, g, &it, 1, start, builds)
			} else {
				r := s.buildResponse(res, warm, 0)
				r.ElapsedMs = time.Since(start).Milliseconds()
				resp.Items[it.index] = r
			}
		}
	}
}

// sweepFresh answers one sweep item on a throwaway encoder (collision
// groups, pool exhaustion, or the retry ladder's second rung). Each call is
// a cold build, counted against the sweep's amortization. Sweep items run
// sequentially inside their group unit (workers=1), so no flow is passed.
func (s *Service) sweepFresh(ctx context.Context, g *sweepGroup, it *plannedItem, retries int, start time.Time, builds *atomic.Int64) *VerifyResponse {
	builds.Add(1)
	r, herr := s.verifyFresh(ctx, g.spec, &it.ov, false, retries)
	if herr != nil {
		return itemFailure(herr.msg, start)
	}
	r.ElapsedMs = time.Since(start).Milliseconds()
	return r
}

// ctxExpired is the verdict-free answer for checks the request deadline (or
// a client cancellation) ended before a verdict: inconclusive with the
// machine-readable reason. Sweeps use it for frozen items; verifies use it
// when the deadline lands during an encoder build.
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
func itemFailure(msg string, start time.Time) *VerifyResponse {
	return &VerifyResponse{
		Status:        "inconclusive",
		Why:           msg,
		UnknownReason: unknownToken(smt.ReasonOther),
		ElapsedMs:     time.Since(start).Milliseconds(),
	}
}
