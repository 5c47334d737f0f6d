// Command benchtables regenerates every table and figure of the paper's
// evaluation section on this machine and prints paper-style rows.
//
// Usage:
//
//	benchtables [-exp all|casestudy|synthesis|fig4a|fig4b|fig4c|fig4d|fig5a|fig5b|fig5c|fig5d|tableiv|actransfer] [-large] [-parallel N]
//
// -large includes the IEEE 300-bus runs (minutes of extra runtime).
// -parallel runs the sweep experiments (Fig 4(b)-(d), Fig 5(b)-(d)) on N
// workers; the scaling figures stay sequential for timing fidelity.
package main

import (
	"flag"
	"fmt"
	"os"

	"segrid/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	large := flag.Bool("large", false, "include the IEEE 300-bus system")
	parallel := flag.Int("parallel", 1, "sweep worker count (<2 = sequential)")
	flag.Parse()
	if err := run(*exp, *large, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(exp string, large bool, parallel int) error {
	cfg := experiments.Config{Out: os.Stdout, Large: large, Parallel: parallel}
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"casestudy", func() error { return experiments.CaseStudyAttacks(cfg) }},
		{"synthesis", func() error { return experiments.CaseStudySynthesis(cfg) }},
		{"fig4a", func() error { _, err := experiments.Fig4a(cfg); return err }},
		{"fig4b", func() error { _, err := experiments.Fig4b(cfg); return err }},
		{"fig4c", func() error { _, err := experiments.Fig4c(cfg); return err }},
		{"fig4d", func() error { _, err := experiments.Fig4d(cfg); return err }},
		{"fig5a", func() error { _, err := experiments.Fig5a(cfg); return err }},
		{"fig5b", func() error { _, err := experiments.Fig5b(cfg); return err }},
		{"fig5c", func() error { _, err := experiments.Fig5c(cfg); return err }},
		{"fig5d", func() error { _, err := experiments.Fig5d(cfg); return err }},
		{"tableiv", func() error { _, err := experiments.TableIV(cfg); return err }},
		{"actransfer", func() error { _, err := experiments.ACTransfer(cfg); return err }},
	}
	ran := false
	for _, s := range steps {
		if exp != "all" && exp != s.name {
			continue
		}
		ran = true
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
