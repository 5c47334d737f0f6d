package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"segrid/internal/core"
	"segrid/internal/pool"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/sched"
	"segrid/internal/screen"
	"segrid/internal/service"
	"segrid/internal/synth"
)

// The traced run. segridd's internals carry no spans, so the benchmark
// replays the same seeded stream in-process, calling each layer's public
// functions in the order the service does (screen → scheduler unit → pool
// checkout → scoped overlay → check → return; synthesis → certificate
// checks) and recording a span around every call. Counters come from the
// layers' own statistics at the same boundaries. The replay's verdicts must
// equal segridd's for every request.

// span is one timed call. Spans of one request share req; Parent is the
// index of the enclosing span, -1 for the request's root.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory; a disabled tracer records nothing, which
// is the untraced replay the overhead is measured against.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// durations returns the span durations of one name, of stream requests
// only unless warm is set (warm-up requests have negative ids).
func (t *tracer) durations(name string, warm bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (warm || s.Req >= 0) {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfTimes sums, per layer (the span name up to its first '.'), each
// span's duration minus the part of it its child spans cover. Stream
// requests only, except for encoder builds, which belong to set-up.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if s.Req < 0 && layer != "encode" {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max64(t.spans[c].StartNs, s.StartNs), min64(t.spans[c].EndNs, s.EndNs)})
		}
		out[layer] += time.Duration(s.EndNs - s.StartNs - covered(ivs))
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if open && iv[0] <= curE {
			curE = max64(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// counts are the per-layer work counters a replay accumulates. All of them
// are sums over the stream's requests and repeat exactly for a seed.
type counts struct {
	EncodeBuilds    int
	BoolVars        int64
	Clauses         int64
	SMTChecks       int
	Conflicts       int64
	Decisions       int64
	Propagations    int64
	TheoryChecks    int64
	Pivots          int64
	FastOps         int64
	BigOps          int64
	ScreenCalls     int
	ScreenDecided   int
	ScreenPivots    int64
	SynthRuns       int
	SynthIterations int
	Certificates    int
	CertBytes       int64
	// Not exact: heap bytes and times depend on the runtime and machine.
	allocBytes   uint64
	screenWasted time.Duration
	screenTime   time.Duration
	selectTime   time.Duration
	verifyTime   time.Duration
}

type spanCtxKey struct{}

// spanRef carries the enclosing span into the pool's build hook.
type spanRef struct{ req, parent int }

// replay drives the layers directly, as the service would for the same
// requests.
type replay struct {
	tr       *tracer
	sched    *sched.Scheduler
	pool     *pool.Pool[*core.Model]
	specs    sync.Map // pool.Key → *scenariofile.AttackSpec
	proofDir string
	tag      string

	mu    sync.Mutex
	c     counts
	sized map[*core.Model]bool
	waits []float64 // ms from Submit to unit start, stream requests only
}

// newReplay builds a replay with its own scheduler (the server's worker
// count) and encoder pool (the service's defaults).
func newReplay(traced bool, proofDir, tag string) (*replay, error) {
	r := &replay{
		tr:       newTracer(traced),
		sched:    sched.New(sched.Config{Workers: 2}),
		proofDir: proofDir,
		tag:      tag,
		sized:    map[*core.Model]bool{},
	}
	p, err := pool.New(pool.Config[*core.Model]{
		New:   r.build,
		Reset: func(m *core.Model) error { return scopeAtBase(m) },
	})
	if err != nil {
		return nil, err
	}
	r.pool = p
	return r, nil
}

func (r *replay) close() {
	r.sched.Close()
	r.pool.Drain()
}

func scopeAtBase(m *core.Model) error {
	if n := m.Solver().NumScopes(); n != 1 {
		return fmt.Errorf("encoder scope stack not at base (%d scopes)", n)
	}
	return nil
}

// build is the pool's cold-build hook: the encode layer.
func (r *replay) build(ctx context.Context, key pool.Key) (*core.Model, error) {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	v, ok := r.specs.Load(key)
	if !ok {
		return nil, fmt.Errorf("no spec for pool key %+v", key)
	}
	sc, err := v.(*scenariofile.AttackSpec).Scenario()
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("encode.build", ref.req, ref.parent)
	m, err := core.NewModelContext(ctx, sc)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.c.EncodeBuilds++
	r.mu.Unlock()
	return m, nil
}

func (r *replay) key(spec *scenariofile.AttackSpec) (pool.Key, error) {
	canon, err := json.Marshal(spec)
	if err != nil {
		return pool.Key{}, err
	}
	k := pool.Key{Topology: spec.Case, Shape: string(canon)}
	r.specs.LoadOrStore(k, spec)
	return k, nil
}

// scheduled runs fn as one unit of a fresh flow on the replay's scheduler,
// as the service does for every verify, sweep group and synthesis, and
// records the time from Submit to the unit's start.
func (r *replay) scheduled(req, parent, cost int, fn func(unitSpan int)) error {
	fl := r.sched.NewFlow(1)
	submitted := time.Now()
	err := fl.Submit(cost, func() {
		wait := time.Since(submitted)
		if req >= 0 {
			r.mu.Lock()
			r.waits = append(r.waits, ms(wait))
			r.mu.Unlock()
		}
		u := r.tr.begin("sched.unit", req, parent)
		fn(u)
		r.tr.end(u)
	})
	if err != nil {
		return err
	}
	fl.Wait()
	return nil
}

// overlay is a scoped delta on a pooled encoder (the sweep's tightened
// bound, or secured measurements/buses).
type overlay struct {
	securedMeas, securedBuses []int
	maxAltered                int
}

// check answers one overlay on a leased encoder in a Push/Pop scope.
func (r *replay) check(ctx context.Context, req, parent int, m *core.Model, ov overlay) (string, error) {
	sv := m.Solver()
	id := r.tr.begin("smt.overlay", req, parent)
	sv.Push()
	var err error
	if len(ov.securedBuses) > 0 {
		err = m.AssertBusesSecured(ov.securedBuses)
	}
	if err == nil && len(ov.securedMeas) > 0 {
		err = m.AssertMeasurementsSecured(ov.securedMeas)
	}
	if err == nil && ov.maxAltered > 0 {
		err = m.AssertMaxAlteredMeasurements(ov.maxAltered)
	}
	r.tr.end(id)
	if err != nil {
		return "", errors.Join(err, sv.Pop())
	}
	id = r.tr.begin("smt.check", req, parent)
	res, err := m.CheckContext(ctx)
	r.tr.end(id)
	if err != nil {
		return "", err
	}
	if err := sv.Pop(); err != nil {
		return "", err
	}
	st := res.Stats
	r.mu.Lock()
	if req >= 0 {
		r.c.SMTChecks++
		r.c.Conflicts += st.Conflicts
		r.c.Decisions += st.Decisions
		r.c.Propagations += st.Propagations
		r.c.TheoryChecks += st.TheoryChecks
		r.c.Pivots += st.Pivots
		r.c.FastOps += st.FastOps
		r.c.BigOps += st.BigOps
		r.c.allocBytes += st.AllocBytes
	}
	if !r.sized[m] {
		// The base encoding is lowered to clauses on an encoder's first
		// check; its size then is the encode layer's output.
		r.sized[m] = true
		r.c.BoolVars += int64(st.BoolVars)
		r.c.Clauses += int64(st.Clauses)
	}
	r.mu.Unlock()
	switch {
	case res.Inconclusive:
		return "inconclusive", nil
	case res.Feasible:
		return "feasible", nil
	}
	return "infeasible", nil
}

// leaseCheck answers items on one pooled lease of spec's encoder.
func (r *replay) leaseCheck(ctx context.Context, req, parent int, spec *scenariofile.AttackSpec, ovs []overlay) ([]string, error) {
	key, err := r.key(spec)
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("pool.checkout", req, parent)
	lease, err := r.pool.Checkout(context.WithValue(ctx, spanCtxKey{}, spanRef{req, id}), key)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ovs))
	for i, ov := range ovs {
		if out[i], err = r.check(ctx, req, parent, lease.Item, ov); err != nil {
			_ = lease.Discard()
			return nil, err
		}
	}
	return out, lease.Return()
}

// screenItem runs the LP screen on one folded instance: a verdict, or ""
// when the screen is inconclusive and the item falls through to SMT.
func (r *replay) screenItem(ctx context.Context, req, parent int, f *foldedVerify) (string, error) {
	sc, err := f.scenario()
	if err != nil {
		return "", err
	}
	id := r.tr.begin("screen.check", req, parent)
	start := time.Now()
	res, err := core.ScreenScenario(ctx, sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	d := time.Since(start)
	r.tr.end(id)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if req >= 0 {
		r.c.ScreenCalls++
		r.c.ScreenPivots += res.Stats.Pivots
		r.c.screenTime += d
	}
	verdict := ""
	switch res.Verdict {
	case screen.Infeasible:
		verdict = "infeasible"
	case screen.FeasibleIntegral:
		verdict = "feasible"
	}
	if req >= 0 {
		if verdict != "" {
			r.c.ScreenDecided++
		} else {
			r.c.screenWasted += d
		}
	}
	return verdict, nil
}

// sweepOverlay maps a sweep item onto a scoped overlay of the base spec.
// The benchmark's sweeps only secure measurements or tighten
// maxAlteredMeasurements, both of which the service answers in-scope on
// the base spec's encoder.
func sweepOverlay(base *scenariofile.AttackSpec, it *service.SweepItem) (overlay, error) {
	ov := overlay{securedMeas: it.SecuredMeasurements, securedBuses: it.SecuredBuses}
	if it.Targets != nil || it.MaxCompromisedBuses != nil {
		return ov, fmt.Errorf("replay handles overlay-only sweep items")
	}
	if it.MaxAlteredMeasurements != nil {
		k := *it.MaxAlteredMeasurements
		if k <= 0 || (base.MaxMeasurements > 0 && k > base.MaxMeasurements) {
			return ov, fmt.Errorf("replay handles tightening bounds only")
		}
		if k != base.MaxMeasurements {
			ov.maxAltered = k
		}
	}
	return ov, nil
}

// do replays one op and returns its statuses in request order.
func (r *replay) do(ctx context.Context, o *op) (*outcome, error) {
	out := &outcome{op: o}
	start := time.Now()
	root := r.tr.begin("op", o.id, -1)
	var err error
	switch {
	case o.verify != nil:
		v := o.verify
		var (
			st   []string
			uerr error
		)
		serr := r.scheduled(o.id, root, 1, func(u int) {
			st, uerr = r.leaseCheck(ctx, o.id, u, &v.Attack, []overlay{{securedMeas: v.SecuredMeasurements, securedBuses: v.SecuredBuses}})
		})
		if err = errors.Join(serr, uerr); err == nil {
			out.verify = &service.VerifyResponse{Status: st[0]}
		}
	case o.sweep != nil:
		out.sweep, err = r.sweep(ctx, o, root)
	default:
		out.synth, err = r.synthesize(ctx, o, root)
	}
	r.tr.end(root)
	out.rtt = time.Since(start)
	return out, err
}

func (r *replay) sweep(ctx context.Context, o *op, root int) (*service.SweepResponse, error) {
	req := o.sweep
	resp := &service.SweepResponse{Items: make([]*service.VerifyResponse, len(req.Items))}
	var (
		pending []int
		ovs     []overlay
	)
	for i := range req.Items {
		ov, err := sweepOverlay(&req.Attack, &req.Items[i])
		if err != nil {
			return nil, err
		}
		if req.Screen != nil && *req.Screen {
			st, err := r.screenItem(ctx, o.id, root, sweepFold(&req.Attack, &req.Items[i]))
			if err != nil {
				return nil, err
			}
			if st != "" {
				resp.Items[i] = &service.VerifyResponse{Status: st, Screened: true}
				continue
			}
		}
		pending = append(pending, i)
		ovs = append(ovs, ov)
	}
	if len(pending) == 0 {
		return resp, nil
	}
	var (
		sts  []string
		uerr error
	)
	serr := r.scheduled(o.id, root, len(pending), func(u int) {
		sts, uerr = r.leaseCheck(ctx, o.id, u, &req.Attack, ovs)
	})
	if err := errors.Join(serr, uerr); err != nil {
		return nil, err
	}
	for j, i := range pending {
		resp.Items[i] = &service.VerifyResponse{Status: sts[j]}
	}
	return resp, nil
}

func (r *replay) synthesize(ctx context.Context, o *op, root int) (*service.SynthesizeResponse, error) {
	sreq, err := o.synth.Synthesis.Requirements()
	if err != nil {
		return nil, err
	}
	if o.synth.Proof {
		sreq.ProofDir = r.proofDir
		sreq.ProofTag = fmt.Sprintf("%s-%d", r.tag, o.id)
	}
	var (
		arch *synth.Architecture
		serr error
	)
	if err := r.scheduled(o.id, root, 1, func(u int) {
		id := r.tr.begin("synth.run", o.id, u)
		arch, serr = synth.SynthesizeContext(ctx, sreq)
		r.tr.end(id)
	}); err != nil {
		return nil, err
	}
	if errors.Is(serr, synth.ErrNoArchitecture) {
		return &service.SynthesizeResponse{Status: "impossible"}, nil
	}
	if serr != nil {
		return nil, serr
	}
	r.mu.Lock()
	if o.id >= 0 {
		r.c.SynthRuns++
		r.c.SynthIterations += arch.Iterations
		r.c.selectTime += arch.SelectTime
		r.c.verifyTime += arch.VerifyTime
	}
	r.mu.Unlock()
	for _, path := range arch.ProofFiles {
		id := r.tr.begin("proof.check", o.id, root)
		_, err := proof.CheckFile(path)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay certificate %s rejected: %w", filepath.Base(path), err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if o.id >= 0 {
			r.mu.Lock()
			r.c.Certificates++
			r.c.CertBytes += st.Size()
			r.mu.Unlock()
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	return &service.SynthesizeResponse{Status: "found", SecuredBuses: arch.SecuredBuses, ProofFiles: arch.ProofFiles}, nil
}

// runStream replays the warm-up list, the warm-in and then the first n ops
// of the seeded stream. It returns the stream's outcomes, the replay wall
// time, and the pool counters as they stood when the warm-in ended.
func (r *replay) runStream(w *workload, seed int64, n int) ([]*outcome, time.Duration, pool.Stats, error) {
	for _, o := range w.warmup {
		if _, err := r.do(bg, o); err != nil {
			return nil, 0, pool.Stats{}, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	var errs firstError
	do := func(o *op) *outcome {
		out, err := r.do(bg, o)
		errs.note(o, err)
		return out
	}
	gen, _, err := w.start(seed, do)
	if err != nil {
		return nil, 0, pool.Stats{}, err
	}
	if err := errs.get(); err != nil {
		return nil, 0, pool.Stats{}, err
	}
	afterWarm := r.pool.Stats()
	outs, wall := closedLoop(gen, ops(n), do)
	return outs, wall, afterWarm, errs.get()
}

// firstError keeps the first error the replayed stream reports.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) note(o *op, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = fmt.Errorf("op %d: %w", o.id, err)
	}
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// statuses lists an outcome's verdicts in request order.
func statuses(o *outcome) []string {
	switch {
	case o.verify != nil:
		return []string{o.verify.Status}
	case o.sweep != nil:
		out := make([]string, len(o.sweep.Items))
		for i, it := range o.sweep.Items {
			if it != nil {
				out[i] = it.Status
			}
		}
		return out
	case o.synth != nil:
		return []string{o.synth.Status}
	}
	return nil
}

// sameVerdicts checks two phases answered every request alike.
func sameVerdicts(what string, a, b []*outcome) error {
	byID := map[int][]string{}
	for _, o := range a {
		byID[o.op.id] = statuses(o)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d requests", what, len(a), len(b))
	}
	for _, o := range b {
		want, ok := byID[o.op.id]
		got := statuses(o)
		if !ok || strings.Join(want, ",") != strings.Join(got, ",") {
			return fmt.Errorf("%s: request %d answered %v, segridd answered %v", what, o.op.id, got, want)
		}
	}
	return nil
}
