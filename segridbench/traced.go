package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"segrid/internal/pool"
	"segrid/internal/service"
)

// replayPass is one in-process replay of a workload's traced stream.
type replayPass struct {
	r         *replay
	outs      []*outcome
	wall      time.Duration
	afterWarm pool.Stats // pool counters when the warm-up ended
	poolStats pool.Stats // pool counters when the stream ended
}

func runReplay(w *workload, seed int64, traced bool, workDir, tag string) (*replayPass, error) {
	dir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newReplay(traced, dir, tag)
	if err != nil {
		return nil, err
	}
	defer r.close()
	outs, wall, afterWarm, err := r.runStream(w, seed, w.traceOps)
	if err != nil {
		return nil, err
	}
	return &replayPass{r: r, outs: outs, wall: wall, afterWarm: afterWarm, poolStats: r.pool.Stats()}, nil
}

// serviceDo answers one verify or sweep op through the in-process
// service.Service entry points: the same request with no HTTP transport.
func serviceDo(svc *service.Service, o *op) (*outcome, error) {
	out := &outcome{op: o}
	start := time.Now()
	var err error
	switch {
	case o.verify != nil:
		out.verify, err = svc.Verify(bg, o.verify)
	case o.sweep != nil:
		out.sweep, err = svc.Sweep(bg, o.sweep)
	default:
		err = fmt.Errorf("service has no in-process synthesis entry point")
	}
	out.rtt = time.Since(start)
	return out, err
}

// runInProcess replays the traced stream through an in-process Service
// configured as segridd is (-concurrency 2, a proof directory, defaults
// otherwise).
func runInProcess(w *workload, seed int64, workDir string) ([]*outcome, error) {
	dir, err := os.MkdirTemp(workDir, "inproc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{MaxConcurrent: 2, ProofDir: dir})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	for _, o := range w.warmup {
		if _, err := serviceDo(svc, o); err != nil {
			return nil, fmt.Errorf("in-process warm-up: %w", err)
		}
	}
	var errs firstError
	do := func(o *op) *outcome {
		out, err := serviceDo(svc, o)
		errs.note(o, err)
		return out
	}
	gen, _, err := w.start(seed, do)
	if err != nil {
		return nil, err
	}
	outs, _ := closedLoop(gen, ops(w.traceOps), do)
	return outs, errs.get()
}

// jsonPerOp times marshalling each request and unmarshalling its answers
// into the api types, per request.
func jsonPerOp(outs []*outcome) (time.Duration, error) {
	start := time.Now()
	for _, o := range outs {
		var req any = o.op.verify
		var first any = &service.VerifyResponse{}
		switch {
		case o.op.sweep != nil:
			req, first = o.op.sweep, &service.SweepResponse{}
		case o.op.synth != nil:
			req, first = o.op.synth, &service.SynthesizeResponse{}
		}
		if _, err := json.Marshal(req); err != nil {
			return 0, err
		}
		for i, raw := range o.raw {
			var dst any = first
			if i > 0 {
				dst = &service.ProofCheckResponse{}
			}
			if err := json.Unmarshal(raw, dst); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start) / time.Duration(len(outs)), nil
}

// runTraced is the -trace 1 run: the seeded stream's fixed prefix over
// HTTP against segridd (untraced, the reference answers and /metrics
// deltas), then through the in-process Service, then twice through the
// layer replay — without and with spans, whose difference is the tracing
// overhead.
func runTraced(w *workload, seed int64, bin, workDir string) (tally, []metric, error) {
	srv, _, err := startServer(bin, workDir)
	if err != nil {
		return tally{}, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	warmOut, err := srv.warmup(w)
	if err != nil {
		return tally{}, nil, err
	}
	do := func(o *op) *outcome { return srv.do(bg, o) }
	gen, warmIn, err := w.start(seed, do)
	if err != nil {
		return tally{}, nil, err
	}
	warmOut = append(warmOut, warmIn...)
	m0, err := srv.metrics()
	if err != nil {
		return tally{}, nil, err
	}
	httpOuts, _ := closedLoop(gen, ops(w.traceOps), do)
	m1, err := srv.metrics()
	if err != nil {
		return tally{}, nil, err
	}
	srv.stop()
	stopped = true

	t := count(httpOuts)
	if _, err := verifyAll(append(warmOut, httpOuts...), 2); err != nil {
		return t, nil, err
	}
	if t.failed() > 0 {
		return t, nil, fmt.Errorf("traced stream had %d failed operations; the replay compares verdicts of a failure-free stream", t.failed())
	}

	// Untraced replays run on both sides of the traced one, so that warming
	// and drift do not land on one side of the overhead.
	plain, err := runReplay(w, seed, false, workDir, "plain")
	if err != nil {
		return t, nil, err
	}
	traced, err := runReplay(w, seed, true, workDir, "traced")
	if err != nil {
		return t, nil, err
	}
	plain2, err := runReplay(w, seed, false, workDir, "plain2")
	if err != nil {
		return t, nil, err
	}
	plainWall := (plain.wall + plain2.wall) / 2
	inproc := plain.outs
	if w.name != "synth-certify" {
		if inproc, err = runInProcess(w, seed, workDir); err != nil {
			return t, nil, err
		}
	}
	for _, c := range []struct {
		what string
		outs []*outcome
	}{{"in-process service", inproc}, {"untraced replay", plain.outs}, {"traced replay", traced.outs}, {"second untraced replay", plain2.outs}} {
		if err := sameVerdicts(c.what, httpOuts, c.outs); err != nil {
			return t, nil, wrong(err)
		}
	}
	if err := checkBypass(w, traced, m0, m1); err != nil {
		return t, nil, err
	}
	jsonT, err := jsonPerOp(httpOuts)
	if err != nil {
		return t, nil, err
	}

	tracePath := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
	if err := traced.r.tr.write(tracePath); err != nil {
		return t, nil, err
	}
	fmt.Printf("traced run: %d requests; spans written to %s\n", len(httpOuts), tracePath)
	return t, layerMetrics(traced, plainWall, httpOuts, inproc, jsonT, m0, m1), nil
}

// checkBypass asserts which layers a workload must not reach.
func checkBypass(w *workload, p *replayPass, m0, m1 *service.Metrics) error {
	r := p.r
	ps := p.poolStats
	httpMisses := m1.Pool.Misses - m0.Pool.Misses
	switch w.name {
	case "verify-warm":
		screens := (m1.ScreenAccepts + m1.ScreenRejects + m1.ScreenInconclusive) -
			(m0.ScreenAccepts + m0.ScreenRejects + m0.ScreenInconclusive)
		if r.c.ScreenCalls != 0 || screens != 0 {
			return fmt.Errorf("verify-warm reached the screen (replay %d, segridd %d calls)", r.c.ScreenCalls, screens)
		}
		if len(r.tr.durations("synth.run", true))+len(r.tr.durations("proof.check", true)) != 0 {
			return fmt.Errorf("verify-warm reached synthesis or proof checking")
		}
		if ps.Misses != p.afterWarm.Misses || httpMisses != 0 {
			return fmt.Errorf("verify-warm built encoders after warm-up (replay %d, segridd %d)", ps.Misses-p.afterWarm.Misses, httpMisses)
		}
	case "sweep-screen":
		groups := map[string]bool{}
		for _, o := range append(append([]*outcome(nil), p.outs...), warmOutcomes(w)...) {
			b, err := json.Marshal(&o.op.sweep.Attack)
			if err != nil {
				return err
			}
			groups[string(b)] = true
		}
		if int(ps.Misses) > len(groups) || int(m1.Pool.Misses) > len(groups) {
			return fmt.Errorf("sweep-screen built more encoders than groups (replay %d, segridd %d, groups %d)",
				ps.Misses, m1.Pool.Misses, len(groups))
		}
	case "synth-certify":
		if ps.Hits+ps.Misses != 0 || m1.Pool.Hits+m1.Pool.Misses != 0 {
			return fmt.Errorf("synth-certify leased from the encoder pool")
		}
	}
	return nil
}

func warmOutcomes(w *workload) []*outcome {
	out := make([]*outcome, len(w.warmup))
	for i, o := range w.warmup {
		out[i] = &outcome{op: o}
	}
	return out
}

// layerMetrics computes the per-layer metrics from the traced replay (spans
// and counters), the untraced replay (overhead), the HTTP and in-process
// phases (service layer) and segridd's /metrics deltas.
func layerMetrics(traced *replayPass, plainWall time.Duration, httpOuts, inproc []*outcome, jsonT time.Duration, m0, m1 *service.Metrics) []metric {
	r := traced.r
	c := r.c
	tr := r.tr
	msList := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = ms(d)
		}
		return out
	}
	inprocByID := map[int]time.Duration{}
	for _, o := range inproc {
		inprocByID[o.op.id] = o.rtt
	}
	var rtt, in, transport []float64
	for _, o := range httpOuts {
		rtt = append(rtt, ms(o.rtt))
		in = append(in, ms(inprocByID[o.op.id]))
		transport = append(transport, ms(o.rtt-inprocByID[o.op.id]))
	}
	ps := traced.poolStats
	checkouts := msList(tr.durations("pool.checkout", false))
	overlays := msList(tr.durations("smt.overlay", false))
	checks := msList(tr.durations("smt.check", false))
	screens := msList(tr.durations("screen.check", false))
	cacheHits := float64(m1.ScreenCacheHits - m0.ScreenCacheHits)
	cacheLookups := cacheHits + float64(m1.ScreenCacheMisses-m0.ScreenCacheMisses)
	self := tr.selfTimes()
	reqs := float64(len(httpOuts))
	out := []metric{
		{"service.rtt_ms_p50", "ms", median(rtt)},
		{"service.inproc_ms_p50", "ms", median(in)},
		{"service.transport_ms_p50", "ms", median(transport)},
		{"service.json_us_per_op", "us", us(jsonT)},

		{"sched.wait_ms_p50", "ms", quantile(r.waits, 0.50)},
		{"sched.wait_ms_p95", "ms", quantile(r.waits, 0.95)},
		{"sched.units_run", "count", float64(m1.Sched.UnitsRun - m0.Sched.UnitsRun)},
		{"sched.units_inline", "count", float64(m1.Sched.UnitsInline - m0.Sched.UnitsInline)},

		{"pool.hits", "count", float64(ps.Hits)},
		{"pool.misses", "count", float64(ps.Misses)},
		{"pool.hit_rate", "ratio", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses))},
		{"pool.evictions", "count", float64(ps.Evictions)},
		{"pool.checkout_us_p50", "us", median(checkouts) * 1000},

		{"encode.builds", "count", float64(c.EncodeBuilds)},
		{"encode.ms_p50", "ms", median(msList(tr.durations("encode.build", true)))},
		{"encode.bool_vars", "count", float64(c.BoolVars)},
		{"encode.clauses", "count", float64(c.Clauses)},

		{"smt.overlay_us_p50", "us", median(overlays) * 1000},
		{"smt.check_ms_p50", "ms", quantile(checks, 0.50)},
		{"smt.check_ms_p95", "ms", quantile(checks, 0.95)},
		{"smt.checks", "count", float64(c.SMTChecks)},
		{"smt.conflicts", "count", float64(c.Conflicts)},
		{"smt.decisions", "count", float64(c.Decisions)},
		{"smt.propagations", "count", float64(c.Propagations)},
		{"smt.theory_checks", "count", float64(c.TheoryChecks)},
		{"smt.pivots", "count", float64(c.Pivots)},
		{"smt.big_op_share", "ratio", ratio(float64(c.BigOps), float64(c.FastOps+c.BigOps))},
		{"smt.alloc_mb", "MiB", float64(c.allocBytes) / (1 << 20)},

		{"screen.calls", "count", float64(c.ScreenCalls)},
		{"screen.decided_share", "ratio", ratio(float64(c.ScreenDecided), float64(c.ScreenCalls))},
		{"screen.ms_p50", "ms", quantile(screens, 0.50)},
		{"screen.ms_p95", "ms", quantile(screens, 0.95)},
		{"screen.pivots", "count", float64(c.ScreenPivots)},
		{"screen.us_per_pivot", "us", ratio(us(c.screenTime), float64(c.ScreenPivots))},
		{"screen.wasted_ms", "ms", ms(c.screenWasted)},
		{"screen.cache_hit_rate", "ratio", ratio(cacheHits, cacheLookups)},

		{"synth.ms_p50", "ms", median(msList(tr.durations("synth.run", false)))},
		{"synth.iterations", "count", float64(c.SynthIterations)},
		{"synth.select_ms", "ms", ms(c.selectTime)},
		{"synth.verify_ms", "ms", ms(c.verifyTime)},

		{"proof.certificates", "count", float64(c.Certificates)},
		{"proof.bytes", "bytes", float64(c.CertBytes)},
		{"proof.check_ms_p50", "ms", median(msList(tr.durations("proof.check", false)))},

		{"trace.spans", "count", float64(len(tr.spans))},
		{"trace.overhead_ms_per_op", "ms", ms(traced.wall-plainWall) / reqs},
		{"trace.overhead_pct", "%", 100 * (traced.wall.Seconds()/plainWall.Seconds() - 1)},
	}
	for _, layer := range []string{"op", "sched", "pool", "encode", "smt", "screen", "synth", "proof"} {
		out = append(out, metric{layer + ".self_ms", "ms", ms(self[layer])})
	}
	return out
}
