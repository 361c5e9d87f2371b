// Command hmrepro runs the reproduction experiments (E1–E17, indexed by
// README's "Paper section → package map") and prints their reports. With
// -list it enumerates the experiments; with -run ID it executes a single
// one. The full suite fans the independent
// experiments out across one worker per core (-parallel=0 forces the
// serial loop); reports print in experiment order either way.
//
// Usage:
//
//	hmrepro            # run everything
//	hmrepro -list
//	hmrepro -run E7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmrepro:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmrepro", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	only := fs.String("run", "", "run only the experiment with this id (e.g. E7)")
	parallel := fs.Int("parallel", -1,
		"workers for the experiment suite: <0 = one per core, 0 = serial, n = n workers")
	if err := fs.Parse(args); err != nil {
		return err
	}

	exps := core.All()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-5s %s\n", e.ID, e.Title)
		}
		return nil
	}

	failures := 0
	if *only == "" {
		// The full suite: independent experiments fan out across workers,
		// reports print in experiment order. -parallel maps onto
		// RunAllWorkers' count, where 0 is one per core and 1 is serial.
		workers := *parallel
		switch {
		case workers < 0:
			workers = 0
		case workers == 0:
			workers = 1
		}
		reps, err := core.RunAllWorkers(workers)
		// Print whatever completed before returning any error, so a
		// failing experiment does not swallow the clean reports.
		for _, rep := range reps {
			if rep == nil {
				continue
			}
			fmt.Fprintln(stdout, rep)
			if !rep.Pass {
				failures++
			}
		}
		if err != nil {
			return err
		}
	} else {
		found := false
		for _, e := range exps {
			if e.ID != *only {
				continue
			}
			found = true
			rep, err := e.Run()
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(stdout, rep)
			if !rep.Pass {
				failures++
			}
		}
		if !found {
			return fmt.Errorf("no experiment %q (try -list)", *only)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}
