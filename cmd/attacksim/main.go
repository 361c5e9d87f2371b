// Command attacksim explores the coordinated attack problem of Section 4:
// it generates the handshake system over an unreliable channel, tabulates
// the knowledge depth attained per delivery count, runs the exhaustive
// Corollary 6 / Proposition 10 rule searches, and replays the message
// chain as a public-announcement chain ("at least d messages were
// delivered"), showing the knowledge the announcement creates that the
// channel itself cannot; -chain=false skips the replay.
//
// -inject switches the system from exhaustive channel branching to the
// seeded fault-injection engine: message losses are drawn from a fault
// plan with the given drop probability (-seed seeds the plan, -runs sets
// the samples per configuration), and the same rule searches run over the
// sampled system. Equal seeds reproduce the output byte for byte.
//
// Usage:
//
//	attacksim -budget 4 -horizon 10
//	attacksim -inject 0.5 -seed 1 -runs 40
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/protocol"
	"repro/internal/runs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	budget := fs.Int("budget", 4, "maximum handshake messages per run")
	horizon := fs.Int("horizon", 10, "observation horizon (ticks)")
	chain := fs.Bool("chain", true, "replay the delivery announcement chain")
	seed := fs.Int64("seed", 1, "fault-plan seed for -inject; equal seeds reproduce the output byte for byte")
	inject := fs.Float64("inject", 0,
		"sample the handshake under a fault plan with this drop probability instead of exhaustive channel branching (0 = exhaustive)")
	samples := fs.Int("runs", 40, "sampled runs per initial configuration when -inject is set")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var s *attack.System
	var err error
	if *inject > 0 {
		plan := &faults.Plan{Seed: *seed, Delay: faults.Fixed{D: 1}, Drop: *inject}
		s, err = attack.BuildInjected(*budget, runs.Time(*horizon), plan, *samples)
	} else {
		s, err = attack.Build(*budget, runs.Time(*horizon))
	}
	if err != nil {
		return err
	}
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.Interp(never, never))

	if *inject > 0 {
		fmt.Printf("coordinated attack: budget %d, horizon %d, %d runs (injected: drop %g, seed %d, %d samples/config)\n\n",
			*budget, *horizon, len(s.Sys.Runs), *inject, *seed, *samples)
	} else {
		fmt.Printf("coordinated attack: budget %d, horizon %d, %d runs\n\n", *budget, *horizon, len(s.Sys.Runs))
	}
	fmt.Printf("%-24s %-12s %-16s\n", "run", "deliveries", "knowledge depth")
	for ri, r := range s.Sys.Runs {
		if r.Init[attack.GeneralA] != "go" {
			continue
		}
		d := 0
		for _, m := range r.Messages {
			if m.Delivered() {
				d++
			}
		}
		depth := 0
		f := logic.P(attack.IntentProp)
		for lvl := 1; lvl <= *budget+1; lvl++ {
			if lvl%2 == 1 {
				f = logic.K(attack.GeneralB, f)
			} else {
				f = logic.K(attack.GeneralA, f)
			}
			set, err := pm.Eval(f)
			if err != nil {
				return err
			}
			if !set.Contains(pm.World(ri, s.Sys.Horizon)) {
				break
			}
			depth = lvl
		}
		fmt.Printf("%-24s %-12d %-16d\n", r.Name, d, depth)
	}

	set, err := pm.Eval(logic.C(nil, logic.P(attack.IntentProp)))
	if err != nil {
		return err
	}
	fmt.Printf("\nC intent holds at %d of %d points\n", set.Count(), pm.NumWorlds())

	if *chain {
		if err := replayChain(s); err != nil {
			return err
		}
	}

	c6, err := s.CheckCorollary6()
	if err != nil {
		return fmt.Errorf("corollary 6 violated: %w", err)
	}
	fmt.Printf("Corollary 6: %d threshold rule pairs tried, %d satisfy the constraints, none ever attacks\n",
		c6.RulesTried, c6.CorrectRules)

	p10, err := s.CheckProposition10()
	if err != nil {
		return fmt.Errorf("proposition 10 violated: %w", err)
	}
	fmt.Printf("Proposition 10: %d event rule pairs tried, %d satisfy eventual coordination, none ever attacks\n",
		p10.RulesTried, p10.CorrectRules)
	return nil
}

// replayChain runs the delivery announcement chain on the all-delivered
// run and prints one row per link.
func replayChain(s *attack.System) error {
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
	best := s.BestChainRun()
	fmt.Printf("\ndelivery announcement chain (run %s, incremental restrictions):\n", best)
	steps, err := s.ReplayDeliveryChain(pm, best)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-10s %-10s %-8s %-8s\n", "announcement", "points", "quotient", "depth", "C intent")
	for _, st := range steps {
		fmt.Printf("del >= %-7d %-10d %-10d %-8d %-8v\n",
			st.Deliveries, st.Points, st.QuotientWorlds, st.Depth, st.Common)
	}
	return nil
}
