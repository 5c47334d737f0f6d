// Command proofcheck independently validates UNSAT certificate streams
// emitted by the solver stack (ufdiverify -proof, synthsec -proof, or the
// smt package's Options.Proof). It replays every derivation: learnt clauses
// must pass reverse unit propagation (RUP), theory lemmas must carry valid
// Farkas coefficients over the recorded atom and slack definitions, Tseitin
// and cardinality definitional clauses are re-derived from their provenance
// records through the shared encoding kernel (never taken on faith from the
// solver), and every recorded Unsat verdict must close under unit
// propagation. The checker shares no search code with the solver — only the
// encoding kernel and the exact-arithmetic layer — so a bug in the CDCL,
// simplex, or clause-emission paths cannot vouch for itself.
//
// Usage:
//
//	proofcheck file.proof [more.proof ...]
//
// Flags:
//
//	-q     quiet: suppress per-file reports, print only failures
//	-trim  after validating, rewrite each certificate in place keeping only
//	       the records reachable from its Unsat answers (DRAT-trim style
//	       backward pass); the trimmed stream is re-verified before it
//	       replaces the original
//
// Exit codes:
//
//	0  every certificate is valid
//	1  at least one certificate is invalid or unreadable
//	2  at least one certificate uses a different format version (and none
//	   was otherwise invalid) — upgrade the checker or regenerate the proof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"segrid/internal/proof"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("proofcheck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	quiet := fs.Bool("q", false, "suppress per-file reports, print only failures")
	trim := fs.Bool("trim", false, "rewrite certificates in place, keeping only records reachable from their Unsat answers")
	if err := fs.Parse(args); err != nil {
		return 1 // flag package already printed the problem
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: proofcheck [-q] [-trim] file.proof [more.proof ...]")
		return 1
	}
	bad, versionSkew := 0, 0
	for _, path := range fs.Args() {
		rep, err := proof.CheckFile(path)
		if err != nil {
			if errors.Is(err, proof.ErrVersion) {
				fmt.Fprintf(os.Stderr, "proofcheck: %s: VERSION MISMATCH: %v\n", path, err)
				versionSkew++
			} else {
				fmt.Fprintf(os.Stderr, "proofcheck: %s: INVALID: %v\n", path, err)
				bad++
			}
			continue
		}
		if *trim {
			st, err := proof.TrimFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proofcheck: %s: TRIM FAILED: %v\n", path, err)
				bad++
				continue
			}
			if !*quiet {
				fmt.Printf("%s: valid — %s\n", path, rep)
				fmt.Printf("%s: trimmed %d → %d records, %d → %d bytes (%.1f×)\n",
					path, st.RecordsBefore, st.RecordsAfter, st.BytesBefore, st.BytesAfter, st.Ratio())
			}
			continue
		}
		if !*quiet {
			fmt.Printf("%s: valid — %s\n", path, rep)
		}
	}
	if bad > 0 {
		return 1
	}
	if versionSkew > 0 {
		return 2
	}
	return 0
}
