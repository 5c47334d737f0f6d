// Command synthsec synthesizes a security architecture — the set of buses
// (or individual measurements) whose data needs integrity protection — that
// makes state estimation resistant to the attacker profile in a JSON
// requirements file (paper Section IV, Algorithm 1).
//
// Usage:
//
//	synthsec [flags] requirements.json
//
// Flags:
//
//	-timeout d        wall-clock budget for the whole run (e.g. 5s; 0 = none)
//	-max-conflicts n  initial per-verification CDCL conflict budget, escalated
//	                  on Unknown results (0 = unlimited)
//	-max-pivots n     initial per-verification simplex pivot budget (0 = unlimited)
//	-no-screen        disable the LP-relaxation screening pre-filter that, by
//	                  default, resolves candidate checks the relaxation can
//	                  decide without an SMT solve (ablation knob; bus-granular
//	                  synthesis only — proof-logging runs skip the screen
//	                  automatically)
//	-proof dir        stream per-attack-model UNSAT certificates to
//	                  dir/attack-<i>.proof (internal/proof format); every
//	                  candidate an architecture must resist is then
//	                  independently re-checkable with cmd/proofcheck
//	-check-proof      emit the certificates (to -proof, or a temp directory
//	                  when -proof is unset) and verify each with the
//	                  independent checker; an invalid certificate exits 1
//	-trim-proof       rewrite each closed certificate in place, keeping only
//	                  the records its Unsat answers depend on (each trimmed
//	                  stream is re-verified before it replaces the original);
//	                  -check-proof then checks the trimmed files
//
// Exit codes classify the outcome for scripted sweeps:
//
//	0  architecture found (printed)
//	1  error — bad usage, unreadable requirements, malformed model, invalid
//	   proof
//	2  no architecture — proven impossible under the requirements
//	3  budget exhausted — timeout/iteration/solver budget hit before a
//	   verdict; the best unverified candidate so far is printed
//
// See internal/scenariofile for the file format; examples live under
// examples/scenarios/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/smt"
	"segrid/internal/synth"
)

// Exit codes, shared vocabulary with cmd/ufdiverify (EXPERIMENTS.md).
const (
	exitFound     = 0
	exitError     = 1
	exitNoArch    = 2
	exitExhausted = 3
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "synthsec:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("synthsec", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	maxConflicts := fs.Int64("max-conflicts", 0, "initial per-verification CDCL conflict budget (0 = unlimited)")
	maxPivots := fs.Int64("max-pivots", 0, "initial per-verification simplex pivot budget (0 = unlimited)")
	noScreen := fs.Bool("no-screen", false, "disable the LP-relaxation screening pre-filter (ablation)")
	proofDir := fs.String("proof", "", "directory for per-attack-model UNSAT certificate streams")
	checkProof := fs.Bool("check-proof", false, "emit the certificates and verify each with the independent checker (temp directory when -proof is unset)")
	trimProof := fs.Bool("trim-proof", false, "trim each closed certificate in place before any -check-proof verification")
	if err := fs.Parse(args); err != nil {
		return exitError, nil // flag package already printed the problem
	}
	if fs.NArg() != 1 {
		return exitError, fmt.Errorf("usage: synthsec [flags] requirements.json")
	}
	limits := synth.Limits{Timeout: *timeout}
	if *maxConflicts > 0 || *maxPivots > 0 {
		limits.InitialBudget = &smt.Budget{
			MaxConflicts: *maxConflicts,
			MaxPivots:    *maxPivots,
		}
	}
	pc := proofConfig{dir: *proofDir, check: *checkProof, trim: *trimProof}
	if pc.trim && pc.dir == "" && !pc.check {
		return exitError, fmt.Errorf("-trim-proof needs certificates to act on: set -proof (or -check-proof)")
	}
	if pc.check && pc.dir == "" {
		tmp, err := os.MkdirTemp("", "synthsec-proof-")
		if err != nil {
			return exitError, err
		}
		pc.dir = tmp
		defer os.RemoveAll(tmp)
	}
	spec, err := scenariofile.LoadSynthesis(fs.Arg(0))
	if err != nil {
		return exitError, err
	}
	if spec.MeasurementGranular() {
		return runMeasurementGranular(spec, limits, pc)
	}
	req, err := spec.Requirements()
	if err != nil {
		return exitError, err
	}
	req.Limits = limits
	req.ProofDir = pc.dir
	req.NoScreen = *noScreen
	sys := req.Attack.System()
	fmt.Printf("system: %s (%d buses, %d lines), operator budget %d buses\n",
		sys.Name, sys.Buses, sys.NumLines(), req.MaxSecuredBuses)
	arch, err := synth.Synthesize(req)
	if err == nil || errors.Is(err, synth.ErrNoArchitecture) || errors.Is(err, synth.ErrBudgetExhausted) {
		if perr := reportProofs(pc); perr != nil {
			return exitError, perr
		}
	}
	switch {
	case errors.Is(err, synth.ErrNoArchitecture):
		fmt.Println("result: no security architecture satisfies the requirements")
		return exitNoArch, nil
	case errors.Is(err, synth.ErrBudgetExhausted):
		return reportExhausted(err, "buses"), nil
	case err != nil:
		return exitError, err
	}
	fmt.Printf("result: secure buses %v\n", arch.SecuredBuses)
	fmt.Printf("  all measurements homed at those buses get data-integrity protection\n")
	printIterations(arch.Iterations, arch.SelectTime, arch.VerifyTime)
	return exitFound, nil
}

// proofConfig carries the -proof/-check-proof/-trim-proof settings through
// both synthesis granularities.
type proofConfig struct {
	dir   string
	check bool
	trim  bool
}

// reportProofs lists the certificate files the run streamed, with -trim-proof
// rewrites each in place keeping only the records its Unsat answers depend
// on, and with -check-proof verifies each with the independent checker. An
// invalid certificate is an error: the run's unsat verdicts are then
// untrusted.
func reportProofs(pc proofConfig) error {
	if pc.dir == "" {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(pc.dir, "attack-*.proof"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, f := range files {
		if pc.trim {
			st, err := proof.TrimFile(f)
			if err != nil {
				return fmt.Errorf("trimming %s: %w", f, err)
			}
			fmt.Printf("proof: %s trimmed %d → %d records, %d → %d bytes (%.1f×)\n",
				f, st.RecordsBefore, st.RecordsAfter, st.BytesBefore, st.BytesAfter, st.Ratio())
		}
		if !pc.check {
			if !pc.trim {
				fmt.Printf("proof: certificate streamed to %s\n", f)
			}
			continue
		}
		rep, err := proof.CheckFile(f)
		if err != nil {
			return fmt.Errorf("certificate %s INVALID: %w", f, err)
		}
		fmt.Printf("proof: %s verified — %s\n", f, rep)
	}
	return nil
}

func runMeasurementGranular(spec *scenariofile.SynthesisSpec, limits synth.Limits, pc proofConfig) (int, error) {
	req, err := spec.MeasurementRequirements()
	if err != nil {
		return exitError, err
	}
	req.Limits = limits
	req.ProofDir = pc.dir
	sys := req.Attack.System()
	fmt.Printf("system: %s (%d buses, %d lines), operator budget %d measurements\n",
		sys.Name, sys.Buses, sys.NumLines(), req.MaxSecuredMeasurements)
	arch, err := synth.SynthesizeMeasurements(req)
	if err == nil || errors.Is(err, synth.ErrNoArchitecture) || errors.Is(err, synth.ErrBudgetExhausted) {
		if perr := reportProofs(pc); perr != nil {
			return exitError, perr
		}
	}
	switch {
	case errors.Is(err, synth.ErrNoArchitecture):
		fmt.Println("result: no security architecture satisfies the requirements")
		return exitNoArch, nil
	case errors.Is(err, synth.ErrBudgetExhausted):
		return reportExhausted(err, "measurements"), nil
	case err != nil:
		return exitError, err
	}
	fmt.Printf("result: secure measurements %v\n", arch.SecuredMeasurements)
	printIterations(arch.Iterations, arch.SelectTime, arch.VerifyTime)
	return exitFound, nil
}

// reportExhausted prints the graceful-degradation summary for a run that ran
// out of budget: the cause, the iteration stats, and — crucially for long
// sweeps — the best (unverified) candidate the search had converged on.
func reportExhausted(err error, granularity string) int {
	var be *synth.BudgetExhaustedError
	if !errors.As(err, &be) {
		fmt.Printf("result: budget exhausted (%v)\n", err)
		return exitExhausted
	}
	fmt.Println("result: budget exhausted before a verdict")
	if be.Reason != nil {
		fmt.Printf("  cause: %v\n", be.Reason)
	}
	if len(be.BestCandidate) > 0 {
		fmt.Printf("  best unverified candidate (%s): %v\n", granularity, be.BestCandidate)
	} else {
		fmt.Println("  no candidate was selected before the budget ran out")
	}
	printIterations(be.Iterations, be.SelectTime, be.VerifyTime)
	return exitExhausted
}

func printIterations(iters int, sel, ver time.Duration) {
	fmt.Printf("  Algorithm 1 iterations: %d\n", iters)
	fmt.Printf("  candidate selection time: %s, verification time: %s\n",
		sel.Round(100*time.Microsecond), ver.Round(100*time.Microsecond))
}
