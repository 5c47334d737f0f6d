// Command ufdiverify decides the feasibility of an undetected false data
// injection attack described by a JSON scenario file and, when feasible,
// prints the attack vector — the measurements to alter, the substations to
// compromise, the topology poisoning and the resulting state corruption.
//
// Usage:
//
//	ufdiverify [flags] scenario.json
//
// Flags:
//
//	-timeout d        wall-clock budget for the check (e.g. 30s; 0 = none)
//	-max-conflicts n  CDCL conflict budget (0 = unlimited)
//	-max-pivots n     simplex pivot budget (0 = unlimited)
//	-screen           run the LP-relaxation screening tier first (default
//	                  true): a definitive relaxation verdict — certified
//	                  unsat or an exactly replayed attack vector — answers
//	                  without the SMT solver; inconclusive screens fall
//	                  through silently. Skipped when a certificate is
//	                  requested (-proof/-check-proof), which needs the
//	                  solver's stream; -screen=false disables it (ablation)
//	-proof path       stream an UNSAT certificate to path (internal/proof
//	                  format); on unsat the verdict is then independently
//	                  re-checkable with cmd/proofcheck
//	-check-proof      emit the certificate (to -proof, or a temp file when
//	                  -proof is unset) and verify it with the independent
//	                  checker before exiting; an invalid certificate exits 1
//	-trim-proof       after the certificate is closed, rewrite it in place
//	                  keeping only the records its Unsat answers depend on
//	                  (the trimmed stream is re-verified before it replaces
//	                  the original); -check-proof then checks the trimmed file
//
// Exit codes classify the outcome for scripted sweeps:
//
//	0  sat — an attack vector exists (printed)
//	1  error — bad usage, unreadable scenario, malformed model, invalid proof
//	2  unsat — no attack vector satisfies the constraints
//	3  unknown — a budget or the timeout was exhausted before a verdict
//
// See internal/scenariofile for the file format; examples live under
// examples/scenarios/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// Exit codes, shared vocabulary with cmd/synthsec (EXPERIMENTS.md).
const (
	exitSat     = 0
	exitError   = 1
	exitUnsat   = 2
	exitUnknown = 3
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ufdiverify:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("ufdiverify", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the check (0 = none)")
	maxConflicts := fs.Int64("max-conflicts", 0, "CDCL conflict budget (0 = unlimited)")
	maxPivots := fs.Int64("max-pivots", 0, "simplex pivot budget (0 = unlimited)")
	screenTier := fs.Bool("screen", true, "run the LP-relaxation screening tier before the SMT solve")
	proofPath := fs.String("proof", "", "stream an UNSAT certificate to this file")
	checkProof := fs.Bool("check-proof", false, "emit the certificate and verify it with the independent checker (temp file when -proof is unset)")
	trimProof := fs.Bool("trim-proof", false, "trim the closed certificate in place before any -check-proof verification")
	if err := fs.Parse(args); err != nil {
		return exitError, nil // flag package already printed the problem
	}
	if fs.NArg() != 1 {
		return exitError, fmt.Errorf("usage: ufdiverify [flags] scenario.json")
	}
	spec, err := scenariofile.LoadAttack(fs.Arg(0))
	if err != nil {
		return exitError, err
	}
	sc, err := spec.Scenario()
	if err != nil {
		return exitError, err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *screenTier && *proofPath == "" && !*checkProof {
		code, done, err := runScreen(ctx, sc)
		if done {
			return code, err
		}
	}
	if *trimProof && *proofPath == "" && !*checkProof {
		return exitError, fmt.Errorf("-trim-proof needs a certificate to act on: set -proof (or -check-proof)")
	}
	if *checkProof && *proofPath == "" {
		tmp, err := os.CreateTemp("", "ufdiverify-*.proof")
		if err != nil {
			return exitError, err
		}
		tmp.Close()
		*proofPath = tmp.Name()
		defer os.Remove(tmp.Name())
	}
	var pw *proof.Writer
	if *proofPath != "" {
		pw, err = proof.CreateAtomic(*proofPath)
		if err != nil {
			return exitError, err
		}
	}
	if *maxConflicts > 0 || *maxPivots > 0 || pw != nil {
		opts := smt.DefaultOptions()
		if sc.Options != nil {
			opts = *sc.Options
		}
		if *maxConflicts > 0 {
			opts.Budget.MaxConflicts = *maxConflicts
		}
		if *maxPivots > 0 {
			opts.Budget.MaxPivots = *maxPivots
		}
		if pw != nil {
			opts.Proof = pw
		}
		sc.Options = &opts
	}

	res, err := core.VerifyContext(ctx, sc)
	if err != nil {
		if pw != nil {
			// Discard the staged certificate: nothing appears at -proof.
			pw.Abort(err)
			pw.Close()
		}
		return exitError, err
	}
	sys := sc.System()
	fmt.Printf("system: %s (%d buses, %d lines, %d potential measurements)\n",
		sys.Name, sys.Buses, sys.NumLines(), sys.NumMeasurements())
	if pw != nil {
		if cerr := pw.Close(); cerr != nil {
			return exitError, fmt.Errorf("writing proof: %w", cerr)
		}
		fmt.Printf("proof: certificate streamed to %s\n", pw.Path())
		if *trimProof {
			st, err := proof.TrimFile(pw.Path())
			if err != nil {
				return exitError, fmt.Errorf("trimming proof: %w", err)
			}
			fmt.Printf("proof: trimmed %d → %d records, %d → %d bytes (%.1f×)\n",
				st.RecordsBefore, st.RecordsAfter, st.BytesBefore, st.BytesAfter, st.Ratio())
		}
		if *checkProof {
			rep, err := proof.CheckFile(pw.Path())
			if err != nil {
				return exitError, fmt.Errorf("certificate INVALID: %w", err)
			}
			fmt.Printf("proof: certificate verified — %s\n", rep)
		}
	}
	if res.Inconclusive {
		fmt.Printf("result: unknown — solver stopped early (%v)\n", res.Why)
		printSolverStats(res.Stats)
		return exitUnknown, nil
	}
	if !res.Feasible {
		fmt.Println("result: unsat — no attack vector satisfies the constraints")
		printSolverStats(res.Stats)
		return exitUnsat, nil
	}
	fmt.Println("result: sat — attack vector found")
	printAttack(sys, res)
	printSolverStats(res.Stats)
	return exitSat, nil
}

// runScreen tries to answer the scenario with the LP-relaxation screening
// tier. done reports whether the screen decided (code then carries the
// normal exit code); an inconclusive screen returns done=false and the
// caller falls through to the SMT pipeline.
func runScreen(ctx context.Context, sc *core.Scenario) (code int, done bool, err error) {
	res, err := core.ScreenScenario(ctx, sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	if err != nil {
		return exitError, true, err
	}
	if !res.Verdict.Definitive() {
		return 0, false, nil
	}
	sys := sc.System()
	fmt.Printf("system: %s (%d buses, %d lines, %d potential measurements)\n",
		sys.Name, sys.Buses, sys.NumLines(), sys.NumMeasurements())
	st := res.Stats
	fmt.Printf("screen: LP relaxation decided without the SMT solver — %d vars, %d rows, %d pivots, %d probes, %s\n",
		st.Vars, st.Rows, st.Pivots, st.Probes, st.Elapsed.Round(10*time.Microsecond))
	if res.Verdict == screen.Infeasible {
		fmt.Printf("screen: %d rational Farkas certificate(s) carried on the verdict, all verified\n", len(res.Certificates))
		fmt.Println("result: unsat — no attack vector satisfies the constraints")
		return exitUnsat, true, nil
	}
	fmt.Println("result: sat — attack vector found")
	printAttack(sys, res.Result)
	return exitSat, true, nil
}

// printAttack renders a feasible verdict's concrete attack vector.
func printAttack(sys *grid.System, res *core.Result) {
	fmt.Printf("  measurements to alter (%d): %v\n",
		len(res.AlteredMeasurements), res.AlteredMeasurements)
	fmt.Printf("  substations to compromise (%d): %v\n",
		len(res.CompromisedBuses), res.CompromisedBuses)
	if len(res.ExcludedLines) > 0 {
		fmt.Printf("  lines to exclude from topology: %v\n", res.ExcludedLines)
	}
	if len(res.IncludedLines) > 0 {
		fmt.Printf("  lines to include in topology: %v\n", res.IncludedLines)
	}
	fmt.Println("  state corruption (Δθ):")
	for bus := 1; bus <= sys.Buses; bus++ {
		if c, ok := res.StateChanges[bus]; ok {
			f, _ := c.Float64()
			fmt.Printf("    bus %3d: %+.6f rad\n", bus, f)
		}
	}
}

func printSolverStats(st smt.Stats) {
	fmt.Printf("solver: %d bool vars, %d clauses, %d arithmetic atoms, %d conflicts, %d pivots, %s\n",
		st.BoolVars, st.Clauses, st.Atoms, st.Conflicts, st.Pivots,
		st.Duration.Round(100*time.Microsecond))
}
