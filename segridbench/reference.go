package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"segrid/internal/core"
	"segrid/internal/scenariofile"
	"segrid/internal/service"
	"segrid/internal/synth"
)

// The correctness gate. Every verdict the service gave is compared against
// an independent reference computed outside the timed phase: a fresh
// encoder, screening off, on the spec with the request's overlay folded in.
// Synthesis answers are checked by re-verifying each architecture and by a
// reference synthesis for each "impossible". Any mismatch fails the run.

// refTask is one reference computation, memoized by key.
type refTask struct {
	key string
	run func() (string, error)
}

// foldedVerify is a verification instance with its overlay folded into the
// scenario rather than asserted in a solver scope.
type foldedVerify struct {
	Spec         scenariofile.AttackSpec `json:"spec"`
	SecuredMeas  []int                   `json:"securedMeas,omitempty"`
	SecuredBuses []int                   `json:"securedBuses,omitempty"`
	MaxAltered   int                     `json:"maxAltered,omitempty"`
}

func (f *foldedVerify) key() string {
	b, err := json.Marshal(f)
	if err != nil {
		panic(err) // plain data always marshals
	}
	return "verify" + string(b)
}

func (f *foldedVerify) scenario() (*core.Scenario, error) {
	sc, err := f.Spec.Scenario()
	if err != nil {
		return nil, err
	}
	for _, j := range f.SecuredBuses {
		if err := sc.Meas.SecureBus(j); err != nil {
			return nil, err
		}
	}
	if len(f.SecuredMeas) > 0 {
		if err := sc.Meas.Secure(f.SecuredMeas...); err != nil {
			return nil, err
		}
	}
	if f.MaxAltered > 0 {
		sc.MaxAlteredMeasurements = f.MaxAltered
	}
	return sc, nil
}

// verdict decides the folded instance on a fresh encoder: "feasible" or
// "infeasible".
func (f *foldedVerify) verdict() (string, error) {
	sc, err := f.scenario()
	if err != nil {
		return "", err
	}
	m, err := core.NewModelContext(context.Background(), sc)
	if err != nil {
		return "", err
	}
	res, err := m.CheckContext(context.Background())
	if err != nil {
		return "", err
	}
	if res.Inconclusive {
		return "", fmt.Errorf("reference check inconclusive: %v", res.Why)
	}
	if res.Feasible {
		return "feasible", nil
	}
	return "infeasible", nil
}

func verifyFold(r *service.VerifyRequest) *foldedVerify {
	return &foldedVerify{Spec: r.Attack, SecuredMeas: r.SecuredMeasurements, SecuredBuses: r.SecuredBuses}
}

func sweepFold(base *scenariofile.AttackSpec, it *service.SweepItem) *foldedVerify {
	f := &foldedVerify{Spec: *base, SecuredMeas: it.SecuredMeasurements, SecuredBuses: it.SecuredBuses}
	if it.Targets != nil {
		f.Spec.Targets = it.Targets
	}
	if it.MaxAlteredMeasurements != nil {
		f.MaxAltered = *it.MaxAlteredMeasurements
	}
	if it.MaxCompromisedBuses != nil {
		f.Spec.MaxBuses = *it.MaxCompromisedBuses
	}
	return f
}

// synthReference decides a synthesis spec in-process without certificates:
// "found" or "impossible". Screening is off, as in the proof-on run.
func synthReference(spec *scenariofile.SynthesisSpec) (string, error) {
	req, err := spec.Requirements()
	if err != nil {
		return "", err
	}
	req.NoScreen = true
	_, err = synth.SynthesizeContext(context.Background(), req)
	switch {
	case err == nil:
		return "found", nil
	case errors.Is(err, synth.ErrNoArchitecture):
		return "impossible", nil
	default:
		return "", err
	}
}

// check is one comparison of an answer against a reference.
type check struct {
	task refTask
	want string // expected reference answer
	what string // the answer being checked, for the error message
}

// checksFor lists the reference comparisons an outcome needs. Failed
// operations (sheds, non-2xx, inconclusive) have no verdict to check.
func checksFor(o *outcome) ([]check, error) {
	if o.invalid != "" {
		return nil, wrong(fmt.Errorf("op %d: certificate rejected by /v1/proofcheck: %s", o.op.id, o.invalid))
	}
	var cs []check
	verifyCheck := func(f *foldedVerify, got, what string) {
		if got != "feasible" && got != "infeasible" {
			return
		}
		cs = append(cs, check{task: refTask{key: f.key(), run: f.verdict}, want: got, what: what})
	}
	switch {
	case o.verify != nil:
		verifyCheck(verifyFold(o.op.verify), o.verify.Status, fmt.Sprintf("op %d verify", o.op.id))
	case o.sweep != nil:
		for i := range o.op.sweep.Items {
			verifyCheck(sweepFold(&o.op.sweep.Attack, &o.op.sweep.Items[i]), o.sweep.Items[i].Status,
				fmt.Sprintf("op %d sweep item %d", o.op.id, i))
		}
	case o.synth != nil:
		spec := &o.op.synth.Synthesis
		what := fmt.Sprintf("op %d synthesis (%s, budget %d, excluded %v)", o.op.id, spec.Attack.Case, spec.MaxSecuredBuses, spec.ExcludedBuses)
		switch o.synth.Status {
		case "found":
			if err := fitsBudget(spec, o.synth.SecuredBuses); err != nil {
				return nil, wrong(fmt.Errorf("%s: %w", what, err))
			}
			if len(o.synth.ProofFiles) == 0 || len(o.checks) != len(o.synth.ProofFiles) {
				return nil, wrong(fmt.Errorf("%s: found without a checked certificate per attack model", what))
			}
			f := &foldedVerify{Spec: spec.Attack, SecuredBuses: o.synth.SecuredBuses}
			cs = append(cs, check{task: refTask{key: f.key(), run: f.verdict}, want: "infeasible", what: what + " re-verify"})
		case "impossible":
			b, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			cs = append(cs, check{task: refTask{key: "synth" + string(b), run: func() (string, error) { return synthReference(spec) }},
				want: "impossible", what: what})
		}
	}
	return cs, nil
}

// fitsBudget checks a found architecture against its spec's budget and
// exclusions.
func fitsBudget(spec *scenariofile.SynthesisSpec, buses []int) error {
	if len(buses) == 0 || len(buses) > spec.MaxSecuredBuses {
		return fmt.Errorf("architecture %v does not fit budget %d", buses, spec.MaxSecuredBuses)
	}
	for _, b := range buses {
		for _, x := range spec.ExcludedBuses {
			if b == x {
				return fmt.Errorf("architecture %v secures excluded bus %d", buses, x)
			}
		}
	}
	return nil
}

// verifyAll runs every distinct reference on `workers` goroutines and
// compares. It returns the number of distinct references computed; a
// mismatch is a wrongAnswer error.
func verifyAll(outs []*outcome, workers int) (int, error) {
	var all []check
	for _, o := range outs {
		cs, err := checksFor(o)
		if err != nil {
			return 0, err
		}
		all = append(all, cs...)
	}
	tasks := map[string]refTask{}
	for _, c := range all {
		tasks[c.task.key] = c.task
	}
	keys := make([]string, 0, len(tasks))
	for k := range tasks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	results := make(map[string]string, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				v, err := tasks[k].run()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", k, err)
				}
				results[k] = v
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	for _, c := range all {
		if got := results[c.task.key]; got != c.want {
			return 0, wrong(fmt.Errorf("%s answered %s, reference says %s", c.what, c.want, got))
		}
	}
	return len(keys), nil
}
