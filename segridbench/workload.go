package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"segrid/internal/grid"
	"segrid/internal/scenariofile"
	"segrid/internal/service"
)

// op is one client operation of a workload stream. Exactly one of verify,
// sweep and synth is set. The stream generators below are the only place
// the seed enters: segridd and the in-process replays receive nothing but
// these requests.
type op struct {
	id int // unique within a run; the trace's request id

	verify *service.VerifyRequest
	sweep  *service.SweepRequest
	synth  *service.SynthesizeRequest
}

// key identifies the request: two ops with the same key send the same
// body.
func (o *op) key() string {
	var req any = o.verify
	switch {
	case o.sweep != nil:
		req = o.sweep
	case o.synth != nil:
		req = o.synth
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // the api request types always marshal
	}
	return string(b)
}

// items is the number of operations op counts for: one verdict, one sweep
// item or one synthesis (with its certificate checks).
func (o *op) items() int {
	if o.sweep != nil {
		return len(o.sweep.Items)
	}
	return 1
}

// workload is one benchmark traffic mix: a fixed warm-up list and one
// deterministic request stream, sent by one closed-loop client.
type workload struct {
	name string
	// warmup is sent once, sequentially, before timing starts; it covers
	// every attack shape or family so pool builds and lazy set-up finish
	// inside set-up.
	warmup []*op
	// next returns the stream generator, which yields the same requests in
	// the same order for the same seed.
	next func(seed int64) func() *op
	// warmIn is the number of stream ops sent after set-up and before
	// timing. Their answers are checked but not timed.
	warmIn int
	// traceOps is the fixed stream prefix the traced run replays, so
	// that its counters do not depend on how fast the machine is.
	traceOps int
	// The timed phase is cut into a head of the stream's first head ops
	// and then windows of window ops each. The end-to-end metrics describe
	// the mix: the head and the first mixWindows windows, which every run
	// completes, past its deadline if need be (see runEndToEnd).
	head, window, mixWindows int
}

// start returns the seed's stream generator after sending the warm-in
// through do. Warm-in ops are the stream's own first ops, given negative
// ids like the warm-up so that they stay out of every per-request figure.
func (w *workload) start(seed int64, do func(*op) *outcome) (func() *op, []*outcome, error) {
	gen := w.next(seed)
	if w.warmIn == 0 {
		return gen, nil, nil
	}
	warm := func() *op {
		o := gen()
		o.id = -1000 - o.id
		return o
	}
	outs, _ := closedLoop(warm, ops(w.warmIn), do)
	for _, o := range outs {
		if o.failed() > 0 {
			return nil, nil, fmt.Errorf("warm-in request %d failed (shed %d, non-2xx %d, inconclusive %d)",
				o.op.id, o.shed, o.non2xx, o.inconclusive)
		}
	}
	return gen, outs, nil
}

var workloads = []*workload{verifyWarm(), sweepScreen(), synthCertify()}

func init() {
	// Warm-up requests carry negative ids, which keeps them out of the
	// trace's per-request figures.
	for _, w := range workloads {
		for i, o := range w.warmup {
			o.id = -1 - i
		}
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// numbering assigns run-unique op ids in stream order.
type numbering struct{ next int }

func (n *numbering) stamp(o *op) *op {
	o.id = n.next
	n.next++
	return o
}

func mustCase(name string) *grid.System {
	sys, err := grid.Case(name)
	if err != nil {
		panic(err) // the case names below are built in
	}
	return sys
}

// pickDistinct draws k distinct values from pool.
func pickDistinct(rng *rand.Rand, pool []int, k int) []int {
	idx := rng.Perm(len(pool))[:k]
	out := make([]int, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	sort.Ints(out)
	return out
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// fig4aSpec is the paper's Fig. 4(a) verification shape: one target state,
// attacker limits of a quarter of the measurements and buses.
func fig4aSpec(name string, target int) scenariofile.AttackSpec {
	sys := mustCase(name)
	return scenariofile.AttackSpec{
		Case:            name,
		Targets:         []int{target},
		MaxMeasurements: sys.NumMeasurements() / 4,
		MaxBuses:        sys.Buses / 4,
	}
}

// verifyShapes are the verify-warm attack shapes: an early, a middle and a
// late target bus per case, as in the paper's Fig. 4(a). A round visits
// each shape perRound times. A warm ieee30 check takes 1.4–2.4 ms and an
// ieee57 one 3.5–4.1 ms; with equal visits p50 fell on the gap between the
// two and jumped across it from run to run. Visiting ieee30 twice as often
// puts p50 inside the ieee30 checks and p95 inside the ieee57 ones.
var verifyShapes = []struct {
	name     string
	target   int
	perRound int
}{
	{"ieee30", 5, 2}, {"ieee30", 16, 2}, {"ieee30", 29, 2},
	{"ieee57", 7, 1}, {"ieee57", 29, 1}, {"ieee57", 56, 1},
}

// verifyPerShape is the number of distinct overlays each shape's encoder
// cycles through. Every distinct request gets a reference verdict, so this
// bounds the correctness gate's cost.
const verifyPerShape = 16

// verifyWarmInRounds is how many cycles (see verifyCycleRounds) run
// before timing starts: each ieee57 encoder goes through its overlays 12
// times, each ieee30 one 24 times. Repeated overlays get cheaper as the warm
// encoder learns them: the first ten cycles cost about twenty steady ones.
// A service runs long past that transient, and a timed phase that included
// it would weigh it by the machine's speed (a slow run spends more of its
// time in it), so the run times the steady state only.
const verifyWarmInRounds = 12

// verifyCatalogueSeed generates the overlays. A warm encoder's cost per
// check depends chaotically on everything it solved before (the same
// seeded stream gives the same solver counters in every process, but one
// ieee57 check takes 2 ms after one history and 400 ms after another), so
// when the run's seed drew the overlays, five seeds gave 170 to 407
// verdicts per second. The overlays and each encoder's order over them are
// therefore the same in every run; the run's seed decides in which order a
// client visits its shapes within each round, which leaves every encoder's
// own request sequence untouched.
const verifyCatalogueSeed = 20160518

// verifyCatalogue returns each shape's overlay list.
func verifyCatalogue() [][][]int {
	out := make([][][]int, len(verifyShapes))
	for i, s := range verifyShapes {
		rng := rand.New(rand.NewSource(verifyCatalogueSeed + int64(i)))
		m := mustCase(s.name).NumMeasurements()
		seen := map[string]bool{}
		for len(out[i]) < verifyPerShape {
			secured := pickDistinct(rng, seq(1, m), 1+rng.Intn(3))
			if key := fmt.Sprint(secured); !seen[key] {
				seen[key] = true
				out[i] = append(out[i], secured)
			}
		}
	}
	return out
}

// verifyCycleRounds is the number of rounds in which every shape's
// encoder cycles through its overlays a whole number of times. One
// window is verifyWindowCycles such cycles: 2·16·9 = 288 verdicts, so its
// p95 has fourteen samples beyond it.
const (
	verifyCycleRounds  = verifyPerShape
	verifyWindowCycles = 2
)

// Every workload runs one client. With two verify-warm clients on a
// two-vCPU machine the server's two solver workers, the clients and the Go
// runtime competed for the CPUs, and p95 spread by half its median between
// runs of the same code. With one client each encoder's request order
// cannot depend on client timing either.
func verifyWarm() *workload {
	var round []int
	for i, s := range verifyShapes {
		for v := 0; v < s.perRound; v++ {
			round = append(round, i)
		}
	}
	cycle := verifyCycleRounds * len(round)
	w := &workload{
		name:       "verify-warm",
		warmIn:     verifyWarmInRounds * cycle,
		traceOps:   192,
		window:     verifyWindowCycles * cycle,
		mixWindows: 1,
	}
	for _, s := range verifyShapes {
		w.warmup = append(w.warmup, &op{verify: &service.VerifyRequest{Attack: fig4aSpec(s.name, s.target)}})
	}
	catalogue := verifyCatalogue()
	w.next = func(seed int64) func() *op {
		rng := rand.New(rand.NewSource(seed * 1000003))
		cursor := make([]int, len(verifyShapes))
		var left []int
		var num numbering
		return func() *op {
			if len(left) == 0 {
				left = append(left, round...)
				rng.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
			}
			i := left[0]
			left = left[1:]
			secured := catalogue[i][cursor[i]%verifyPerShape]
			cursor[i]++
			s := verifyShapes[i]
			return num.stamp(&op{verify: &service.VerifyRequest{
				Attack:              fig4aSpec(s.name, s.target),
				SecuredMeasurements: secured,
			}})
		}
	}
	return w
}

// Sweep families: the BENCH sweep families of the service's batched-sweep
// rows. sweepFamily14 is the ieee14 OnlyTargets base with untaken
// measurements, sweepFamily30 the ieee30 any-state base.
var (
	sweepFamily14 = scenariofile.AttackSpec{
		Case: "ieee14", Untaken: []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
		Targets: []int{12}, OnlyTargets: true,
	}
	sweepFamily30 = scenariofile.AttackSpec{Case: "ieee30", AnyState: true}
)

// Sweep-screen stream shape: rounds of sweepRound sweeps of sweepItems
// items; the ieee30 family takes every fourth sweep, the ieee14 family the
// rest. Most items secure 1–3 seeded measurements (Fig. 4(b) axis), which
// the screen decides in well under a millisecond. The round's first ieee30
// sweep and one ieee14 sweep carry one item that tightens
// maxAlteredMeasurements instead (Fig. 4(c) axis): on ieee30 the screen
// spends its whole pivot budget on such an item (about 1.5 s on a 2-vCPU
// VM) before the scoped-bound SMT tail answers it, on ieee14 it decides
// some and wastes milliseconds on others.
//
// The tightened bounds walk the Fig. 4(c) axis in a fixed order (even
// limits upward, then odd ones), never repeating; once a family's bounds
// run out, its tightened slots secure measurements instead. Only items the
// screen cannot decide reach a family's warm encoder, so that order is the
// encoder's whole history: every run asks the SMT tail the same questions
// in the same order, whatever the seed. A seeded draw of bounds made the
// seed, not the program, set the throughput (one scoped check took 5 s
// after one history and 40 ms after another).
//
// One sweep in fourteen is a slow ieee30 one, so p95 falls inside the slow
// sweeps: with one in forty it fell among the ieee14 tightened sweeps,
// whose costs range from 2 to 30 ms, and moved from 2.6 to 8.2 ms between
// runs. A 30 s run holds 230–370 sweeps.
//
// The mix is the first sweepMixRounds rounds, 252 sweeps, about what a 30 s
// run completes. Each tightened item grows the family encoder, so peak RSS,
// p95 and throughput follow how many rounds a run reached; a mix of fixed
// length keeps the machine's speed from choosing it.
const (
	sweepRound     = 14
	sweepItems     = 2
	sweepMixRounds = 18
)

func sweepScreen() *workload {
	w := &workload{
		name:       "sweep-screen",
		traceOps:   2 * sweepRound,
		window:     sweepMixRounds * sweepRound,
		mixWindows: 1,
	}
	off := false
	for _, base := range []scenariofile.AttackSpec{sweepFamily14, sweepFamily30} {
		// Screening off for the warm-up item so the family's group encoder
		// is built inside set-up.
		w.warmup = append(w.warmup, &op{sweep: &service.SweepRequest{
			Attack: base, Items: []service.SweepItem{{}}, Screen: &off,
		}})
	}
	w.next = func(seed int64) func() *op {
		g := newSweepGen(seed)
		var num numbering
		return func() *op { return num.stamp(g.next()) }
	}
	return w
}

// sweepGen yields the sweep-screen stream for one seed.
type sweepGen struct {
	rng       *rand.Rand
	pos       int
	securable map[string][]int // family case → securable measurement IDs
	tighten   map[string][]int // family case → tightened bounds not yet used
	seen      map[string]bool  // items already issued, keyed by family and item
}

// axisOrder lists lo..hi with the even values first, both halves
// ascending.
func axisOrder(lo, hi int) []int {
	var even, odd []int
	for v := lo; v <= hi; v++ {
		if v%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return append(even, odd...)
}

func newSweepGen(seed int64) *sweepGen {
	g := &sweepGen{
		rng:       rand.New(rand.NewSource(seed*7919 + 17)),
		securable: map[string][]int{},
		tighten:   map[string][]int{},
		seen:      map[string]bool{},
	}
	for _, f := range []scenariofile.AttackSpec{sweepFamily14, sweepFamily30} {
		sc, err := f.Scenario()
		if err != nil {
			panic(err) // the families above are valid
		}
		taken := sc.Meas.TakenIDs()
		g.securable[f.Case] = taken
		hi := len(taken)
		if f.Case == "ieee30" {
			hi = 60
		}
		g.tighten[f.Case] = axisOrder(2, hi)
	}
	return g
}

func (g *sweepGen) next() *op {
	p := g.pos % sweepRound
	g.pos++
	base := sweepFamily14
	if p%4 == 1 {
		base = sweepFamily30
	}
	tightAt := -1
	if p == 1 || p == 6 {
		tightAt = g.rng.Intn(sweepItems)
	}
	items := make([]service.SweepItem, 0, sweepItems)
	for len(items) < sweepItems {
		var it service.SweepItem
		if len(items) == tightAt && len(g.tighten[base.Case]) > 0 {
			k := g.tighten[base.Case][0]
			g.tighten[base.Case] = g.tighten[base.Case][1:]
			it.MaxAlteredMeasurements = &k
		} else {
			ids := g.securable[base.Case]
			it.SecuredMeasurements = pickDistinct(g.rng, ids, 1+g.rng.Intn(3))
		}
		key := base.Case + itemKey(&it)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		items = append(items, it)
	}
	on := true
	return &op{sweep: &service.SweepRequest{Attack: base, Items: items, Screen: &on}}
}

func itemKey(it *service.SweepItem) string {
	b, err := json.Marshal(it)
	if err != nil {
		panic(err) // plain ints and slices always marshal
	}
	return string(b)
}

// Synthesis catalogue: Fig. 5 bus-granular any-state syntheses with budgets
// from one below each case's minimum (ieee14: 4, ieee30: 11, ieee57: 20
// with Eq. 30 pruning) to two above it, so the low budgets answer
// "impossible". Every synthesis asks for certificates.
var synthBudgets = map[string][]int{
	"ieee14": {3, 4, 5, 6},
	"ieee30": {10, 11, 12, 13},
	"ieee57": {20, 19, 21, 22},
}

// synthMixCycles is the number of catalogue cycles in synth-certify's mix:
// about as many as a 30 s run completes.
const synthMixCycles = 5

func synthSpec(name string, budget int, excluded []int) *service.SynthesizeRequest {
	return &service.SynthesizeRequest{
		Synthesis: scenariofile.SynthesisSpec{
			Attack:          scenariofile.AttackSpec{Case: name, AnyState: true},
			MaxSecuredBuses: budget,
			ExcludedBuses:   excluded,
			Prune:           true,
		},
		Proof: true,
	}
}

// synthSmall is one cycle of the ieee14 and ieee30 syntheses: every ieee14
// (budget, excluded bus) pair twice, and per ieee30 budget the base spec
// plus every even bus excluded in turn — no exclusion counted as one more
// choice. A cycle's work is therefore the same for every seed; the seed
// decides the order. ieee14 takes about two thirds of the syntheses, so p50
// falls inside them rather than on the boundary with ieee30.
func synthSmall() []*op {
	var out []*op
	for _, name := range []string{"ieee14", "ieee30"} {
		buses := mustCase(name).Buses
		for _, b := range synthBudgets[name] {
			for x := 1; x <= buses; x++ {
				var excl []int
				if x > 1 {
					excl = []int{x}
				}
				switch {
				case name == "ieee14":
					out = append(out, &op{synth: synthSpec(name, b, excl)}, &op{synth: synthSpec(name, b, excl)})
				case x == 1 || x%2 == 0:
					out = append(out, &op{synth: synthSpec(name, b, excl)})
				}
			}
		}
	}
	return out
}

// synthCertify's timed phase starts with the four ieee57 syntheses in a
// fixed order, the head: each takes 0.05–5.5 s, so a run that reached a
// seed-dependent subset of them, or ended inside one, would let the seed
// and the deadline set the spread. One window is then one cycle of the
// ieee14/ieee30 catalogue.
func synthCertify() *workload {
	big := synthBudgets["ieee57"]
	small := synthSmall()
	w := &workload{
		name:       "synth-certify",
		traceOps:   len(big) + 44,
		head:       len(big),
		window:     len(small),
		mixWindows: synthMixCycles,
	}
	for _, name := range []string{"ieee14", "ieee30", "ieee57"} {
		w.warmup = append(w.warmup, &op{synth: synthSpec(name, slices.Max(synthBudgets[name])+1, nil)})
	}
	w.next = func(seed int64) func() *op {
		rng := rand.New(rand.NewSource(seed*104729 + 3))
		var cyc []*op
		num := &numbering{}
		i := 0
		return func() *op {
			defer func() { i++ }()
			if i < len(big) {
				return num.stamp(&op{synth: synthSpec("ieee57", big[i], nil)})
			}
			if len(cyc) == 0 {
				cyc = append(cyc, small...)
				rng.Shuffle(len(cyc), func(a, b int) { cyc[a], cyc[b] = cyc[b], cyc[a] })
			}
			o := *cyc[0]
			cyc = cyc[1:]
			return num.stamp(&o)
		}
	}
	return w
}
