// Command segridbench is segrid's end-to-end benchmark. It launches segridd
// as a child process on loopback, drives one seeded closed-loop workload
// over HTTP, checks every answer against an independent reference, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a traced run replays the same seeded stream in-process
// and reports per-layer metrics (see trace.go). Run it through run.sh from
// the repository root, which builds segridd and this command from source:
//
//	bash segridbench/run.sh --workload verify-warm --seed 1 --seconds 30 --trace 0
//
// The workloads, metric definitions and baseline observations are
// described in README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// A run sets segridd up at least minSetups times, and more (up to
// maxSetups) while their total stays under setupBudget, so that a set-up
// of a few tens of milliseconds gets enough repeats for a steady median;
// setup_s is that median.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload: verify-warm, sweep-screen or synth-certify")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "timed-phase length in seconds (untraced runs)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	bin := flag.String("segridd", "", "segridd binary")
	workDir := flag.String("workdir", "", "scratch directory for proof files and trace output")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *trace, *bin, *workDir); err != nil {
		fmt.Fprintf(os.Stderr, "segridbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricJSONVal `json:"metrics"`
}

type metricJSONVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds, trace int, bin, workDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if bin == "" || workDir == "" {
		return fmt.Errorf("-segridd and -workdir are required (run through run.sh)")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var (
		t       tally
		metrics []metric
	)
	switch trace {
	case 0:
		t, metrics, err = runEndToEnd(w, seed, time.Duration(seconds)*time.Second, bin, workDir)
	case 1:
		t, metrics, err = runTraced(w, seed, bin, workDir)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	var wa wrongAnswer
	if errors.As(err, &wa) {
		line, jerr := json.Marshal(result{Correct: false, Attempted: max(t.attempted, 1), Failed: t.failed(), Metrics: map[string]metricJSONVal{}})
		if jerr == nil {
			fmt.Println(string(line))
		}
		return err
	}
	if err != nil {
		return err
	}
	return printResult(w, seed, t, metrics)
}

// wrongAnswer marks a correctness failure — a verdict that disagrees with
// its reference or a rejected certificate. The run then prints
// "correct": false and exits non-zero; it is never a counted failed
// operation.
type wrongAnswer struct{ error }

func wrong(err error) error { return wrongAnswer{err} }

func (w wrongAnswer) Unwrap() error { return w.error }

func printResult(w *workload, seed int64, t tally, metrics []metric) error {
	fmt.Printf("workload %s (seed %d, one client): sent %d requests = %d operations; succeeded %d, failed %d (shed %d, other non-2xx %d, inconclusive %d); error_rate %.4f\n",
		w.name, seed, t.requests, t.attempted, t.succeeded, t.failed(),
		t.shed, t.non2xx, t.inconclusive, ratio(float64(t.failed()), float64(t.attempted)))
	res := result{Correct: true, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]metricJSONVal{}}
	sort.SliceStable(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	for _, m := range metrics {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricJSONVal{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd is the untraced measurement: set segridd up several times,
// keep the last instance, run the closed loop for d, then check every
// answer against the references.
func runEndToEnd(w *workload, seed int64, d time.Duration, bin, workDir string) (tally, []metric, error) {
	var (
		setupS  []float64
		srv     *server
		warmOut []*outcome
	)
	var spent time.Duration
	for i := 0; srv == nil; i++ {
		s, start, err := startServer(bin, workDir)
		if err != nil {
			return tally{}, nil, err
		}
		outs, err := s.warmup(w)
		if err != nil {
			s.stop()
			return tally{}, nil, err
		}
		d := time.Since(start)
		spent += d
		setupS = append(setupS, d.Seconds())
		warmOut = append(warmOut, outs...)
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			srv = s
		} else {
			s.stop()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	do := func(o *op) *outcome { return srv.do(bg, o) }
	gen, warmIn, err := w.start(seed, do)
	if err != nil {
		return tally{}, nil, err
	}
	warmOut = append(warmOut, warmIn...)
	steal0, total0, err := hostSteal()
	if err != nil {
		return tally{}, nil, err
	}
	p, err := timedLoop(w, gen, d, do, srv)
	if err != nil {
		return tally{}, nil, err
	}
	steal1, total1, err := hostSteal()
	if err != nil {
		return tally{}, nil, err
	}
	srv.stop()
	stopped = true

	t := count(p.outs)
	refs, err := verifyAll(append(warmOut, p.outs...), 2)
	if err != nil {
		return t, nil, err
	}
	// A request repeats many times in a run: verify-warm sends each of its
	// 96 requests 70–150 times, synth-certify each catalogue synthesis once
	// or twice per window. Its typical round trip is the median over its
	// repeats, which a stretch in which the host runs others on the VM's
	// vCPUs (hypervisor steal of 10–30% doubled p95 in whole runs) does not
	// move; a slower program moves every repeat. sweep-screen's requests
	// never repeat, so there a request's typical round trip is its round
	// trip.
	typical := typicalRTT(p.outs)
	mix := p.outs[:p.wins[w.mixWindows-1].to]
	samples := make([]float64, len(mix))
	mixMS, mixOps := 0.0, 0
	for i, o := range mix {
		samples[i] = typical[o.op.key()]
		mixMS += samples[i]
		mixOps += o.op.items() - o.failed()
	}
	if len(samples) < 200 {
		fmt.Fprintf(os.Stderr, "segridbench: warning: %d latency samples leave fewer than ten beyond p95\n", len(samples))
	}
	// CPU per operation is the median over every complete window, weighed
	// with the head as in the mix.
	var cpo, spo []float64
	for _, win := range p.wins {
		done := float64(max(win.ops, 1))
		cpo = append(cpo, ms(win.cpu)/done)
		spo = append(spo, win.wall.Seconds()/done)
	}
	cpuMS := ms(p.head.cpu) + float64(mixOps-p.head.ops)*median(cpo)
	raw := make([]float64, len(p.outs))
	for i, o := range p.outs {
		raw[i] = ms(o.rtt)
	}
	fmt.Printf("timed phase %.2f s: head %d ops in %.3f s, %d complete windows of %d ops (window ms/op q1/median/q3 %s), mix %d requests, %d requests of %d distinct kinds (p50/p95 over every round trip %.3f/%.3f ms), %d distinct references checked, setups %s s, host steal %.1f%%\n",
		p.wall.Seconds(), w.head, p.head.wall.Seconds(), len(p.wins), w.window, fmtQuartiles(spo, 1e3), len(mix), len(p.outs), len(typical), quantile(raw, 0.5), quantile(raw, 0.95), refs, fmtList(setupS),
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	done := float64(max(mixOps, 1))
	return t, []metric{
		{"setup_s", "s", median(setupS)},
		{"p50_ms", "ms", quantile(samples, 0.50)},
		{"p95_ms", "ms", quantile(samples, 0.95)},
		{"throughput_per_s", "1/s", 1000 * float64(mixOps) / mixMS},
		{"cpu_ms_per_op", "ms", cpuMS / done},
		{"peak_rss_mb", "MiB", p.rssMB},
	}, nil
}

// typicalRTT maps each distinct request to the median of its round trips,
// in ms.
func typicalRTT(outs []*outcome) map[string]float64 {
	rtts := map[string][]float64{}
	for _, o := range outs {
		k := o.op.key()
		rtts[k] = append(rtts[k], ms(o.rtt))
	}
	out := make(map[string]float64, len(rtts))
	for k, xs := range rtts {
		out[k] = median(xs)
	}
	return out
}

// fmtQuartiles prints the first quartile, median and third quartile of xs
// scaled by f.
func fmtQuartiles(xs []float64, f float64) string {
	return fmt.Sprintf("%.3f/%.3f/%.3f", f*quantile(xs, 0.25), f*quantile(xs, 0.5), f*quantile(xs, 0.75))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
