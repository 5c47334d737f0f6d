package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"segrid/internal/service"
)

var bg = context.Background()

// outcome is one answered op: its client round trip, the answers, and how
// many of its operations failed and why.
type outcome struct {
	op  *op
	rtt time.Duration

	verify *service.VerifyResponse
	sweep  *service.SweepResponse
	synth  *service.SynthesizeResponse
	checks []*service.ProofCheckResponse
	raw    [][]byte // answer bodies, for the traced run's JSON timing

	// Failure accounting, in operations (sweep items count one each).
	shed, non2xx, inconclusive int
	// invalid names a certificate the server's checker rejected: a
	// correctness failure, never a counted failed operation.
	invalid string
}

func (o *outcome) failed() int { return o.shed + o.non2xx + o.inconclusive }

// fail books a transport error or non-2xx answer against every operation
// of the op.
func (o *outcome) fail(err error) {
	n := o.op.items()
	var he *httpError
	if errors.As(err, &he) && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable) {
		o.shed += n
		return
	}
	o.non2xx += n
}

// do sends one op over HTTP. A synthesis op includes POST /v1/proofcheck for
// every certificate the synthesis returned.
func (s *server) do(ctx context.Context, o *op) *outcome {
	out := &outcome{op: o}
	start := time.Now()
	defer func() { out.rtt = time.Since(start) }()
	switch {
	case o.verify != nil:
		var r service.VerifyResponse
		raw, err := s.post(ctx, "/v1/verify", o.verify, &r)
		out.raw = append(out.raw, raw)
		if err != nil {
			out.fail(err)
			return out
		}
		out.verify = &r
		if r.Status == "inconclusive" {
			out.inconclusive++
		}
	case o.sweep != nil:
		var r service.SweepResponse
		raw, err := s.post(ctx, "/v1/sweep", o.sweep, &r)
		out.raw = append(out.raw, raw)
		if err != nil {
			out.fail(err)
			return out
		}
		if len(r.Items) != len(o.sweep.Items) {
			out.non2xx += o.items()
			return out
		}
		out.sweep = &r
		for _, it := range r.Items {
			if it.Status == "inconclusive" {
				out.inconclusive++
			}
		}
	default:
		var r service.SynthesizeResponse
		raw, err := s.post(ctx, "/v1/synthesize", o.synth, &r)
		out.raw = append(out.raw, raw)
		if err != nil {
			out.fail(err)
			return out
		}
		out.synth = &r
		if r.Status == "inconclusive" {
			out.inconclusive++
			return out
		}
		for _, path := range r.ProofFiles {
			// /v1/synthesize names certificates by their path on the
			// server, /v1/proofcheck takes them relative to -proof-dir.
			rel, err := filepath.Rel(s.proofDir, path)
			if err != nil {
				out.fail(err)
				return out
			}
			var c service.ProofCheckResponse
			raw, err := s.post(ctx, "/v1/proofcheck", &service.ProofCheckRequest{Path: rel}, &c)
			out.raw = append(out.raw, raw)
			if err != nil {
				out.fail(err)
				return out
			}
			if !c.Valid {
				out.invalid = fmt.Sprintf("%s: %s", path, c.Error)
			}
			out.checks = append(out.checks, &c)
		}
	}
	return out
}

// warmup sends the workload's warm-up list sequentially. Any failure is an
// error: set-up must leave every shape's encoder built.
func (s *server) warmup(w *workload) ([]*outcome, error) {
	var outs []*outcome
	for _, o := range w.warmup {
		out := s.do(bg, o)
		if out.failed() > 0 || out.invalid != "" {
			return nil, fmt.Errorf("warm-up request %d failed (shed %d, non-2xx %d, inconclusive %d, invalid %q)",
				o.id, out.shed, out.non2xx, out.inconclusive, out.invalid)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// closedLoop sends gen's next op only after the previous answer arrived,
// while more allows (ops all run to completion: a run never cuts an answer
// short). It returns every outcome and the wall time from the start to the
// last answer.
func closedLoop(gen func() *op, more func(sent int) bool, do func(*op) *outcome) ([]*outcome, time.Duration) {
	var outs []*outcome
	start := time.Now()
	for more(len(outs)) {
		outs = append(outs, do(gen()))
	}
	return outs, time.Since(start)
}

// window is one stretch of the timed phase, a fixed list of operations.
type window struct {
	from, to int           // its requests, timedPhase.outs[from:to]
	ops      int           // operations that succeeded
	wall     time.Duration // from its first request to its last answer
	cpu      time.Duration // segridd's CPU time over the same stretch
}

// timedPhase is the outcome of timedLoop: every answer, the head (the
// stream's first w.head ops), the complete windows after it, segridd's
// peak RSS when the mix (the head and the first w.mixWindows windows)
// ended, and the wall time to the last answer.
type timedPhase struct {
	outs  []*outcome
	head  window
	wins  []window
	rssMB float64
	wall  time.Duration
}

// timedLoop runs the workload's one closed-loop client for d, and past d
// until the mix is complete, cutting the stream into the head and
// w.window-op windows. segridd's CPU time is read at every boundary. A
// window the deadline cut short is answered and checked but measures
// nothing.
func timedLoop(w *workload, gen func() *op, d time.Duration, do func(*op) *outcome, srv *server) (*timedPhase, error) {
	p := &timedPhase{}
	var cur window
	mark, err := srv.procCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	from := start
	closeWindow := func(isHead bool) error {
		c, err := srv.procCPU()
		if err != nil {
			return err
		}
		now := time.Now()
		cur.to, cur.wall, cur.cpu = len(p.outs), now.Sub(from), c-mark
		if isHead {
			p.head = cur
		} else {
			p.wins = append(p.wins, cur)
		}
		if len(p.wins) == w.mixWindows && !isHead {
			if p.rssMB, err = srv.peakRSSMB(); err != nil {
				return err
			}
		}
		cur, from, mark = window{from: len(p.outs)}, now, c
		return nil
	}
	end := start.Add(d)
	for len(p.wins) < w.mixWindows || time.Now().Before(end) {
		o := do(gen())
		p.outs = append(p.outs, o)
		cur.ops += o.op.items() - o.failed()
		n := len(p.outs) - w.head
		switch {
		case n == 0:
			err = closeWindow(true)
		case n > 0 && n%w.window == 0:
			err = closeWindow(false)
		}
		if err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// ops keeps a closed loop sending n ops: the warm-in and the traced run's
// stream, whose length must not depend on the machine's speed.
func ops(n int) func(int) bool { return func(sent int) bool { return sent < n } }

// tally sums operation and failure counts over outcomes.
type tally struct {
	attempted, succeeded                 int
	shed, non2xx, inconclusive, requests int
}

func count(outs []*outcome) tally {
	var t tally
	for _, o := range outs {
		t.requests++
		t.attempted += o.op.items()
		t.shed += o.shed
		t.non2xx += o.non2xx
		t.inconclusive += o.inconclusive
	}
	t.succeeded = t.attempted - t.shed - t.non2xx - t.inconclusive
	return t
}

func (t tally) failed() int { return t.shed + t.non2xx + t.inconclusive }
