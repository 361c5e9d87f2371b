// Package core orchestrates the reproduction of Halpern & Moses,
// "Knowledge and Common Knowledge in a Distributed Environment": it exposes
// one driver per experiment in the paper's evaluation (the worked examples
// and numbered theorems; README's "Paper section → package map" indexes
// them), each regenerating the corresponding table, series or
// machine-checked claim on top of the substrate packages (logic, kripke,
// runs, protocol, temporal, imprecision, muddy, attack, consistency,
// fixpoint).
//
// Every driver returns a Report whose Lines are the rows of the regenerated
// table and whose Pass field records whether the paper's claims held.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier (E1–E17).
	ID string
	// Title summarizes the paper claim being reproduced.
	Title string
	// Pass records whether every checked claim held.
	Pass bool
	// Lines are the regenerated table rows / findings.
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) failf(format string, args ...any) {
	r.Pass = false
	r.Lines = append(r.Lines, "FAIL: "+fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "[%s] %s — %s\n", r.ID, r.Title, status)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}

// Experiment pairs an identifier with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Report, error)
}

// All returns every experiment with its default parameters, in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Muddy children: first yes in round k", func() (*Report, error) { return E1MuddyChildren(6) }},
		{"E2", "Muddy children: E-level k-1 before announcement, C m after", func() (*Report, error) { return E2KnowledgeDepth(5) }},
		{"E3", "Knowledge hierarchy: strict vs collapsed", E3Hierarchy},
		{"E4", "Coordinated attack: depth = deliveries; Cor. 6; Prop. 10; Prop. 4", E4CoordinatedAttack},
		{"E5", "Theorem 5: unreliable communication gates common knowledge", E5Theorem5},
		{"E6", "Theorem 7: unbounded delivery gates common knowledge", E6Theorem7},
		{"E7", "R2-D2: one epsilon per level; C^eps on send; global clock fix", E7R2D2},
		{"E8", "Temporal imprecision: Lemma 14, Prop. 13, Theorem 8, Prop. 15", E8Imprecision},
		{"E9", "OK protocol and C^eps/C^dia attainability (Thms 9, 11)", E9EpsilonEventual},
		{"E10", "Timestamped common knowledge vs C, C^eps, C^dia (Thm 12)", E10Timestamped},
		{"E11", "Proposition 1: S5 for K, D, C; C1; C2; Lemma 2", E11S5},
		{"E12", "Internal knowledge consistency: eager commit", E12InternalConsistency},
		{"E13", "Appendix A: fixed points, iteration, tower vs gfp", E13Fixpoint},
		{"E14", "Phase-based agreement: lockstep C vs jittered C^T/C^eps", E14Agreement},
		{"E15", "Knowledge gain requires message chains (Chandy-Misra)", E15MessageChains},
		{"E16", "Fact discovery and publication: the deadlock-detection climb", E16FactDiscovery},
		{"E17", "Knowledge-based programs: bit transmission fixed point", E17KnowledgeBasedProgram},
	}
}

// RunAll executes every experiment and returns the reports, in experiment
// order. Execution continues past failures; an error is returned only for
// infrastructure problems. The experiments are independent — each builds
// its own systems and models — so they are fanned out across one worker
// per core (RunAllWorkers for explicit control); the reports are identical
// to a serial run either way.
func RunAll() ([]*Report, error) { return RunAllWorkers(0) }

// RunAllWorkers is RunAll with an explicit worker count: 0 means one
// worker per core (GOMAXPROCS), 1 forces the serial loop. On error the
// returned slice holds the reports completed before the error was
// noticed, in order, with nil gaps for experiments not finished.
func RunAllWorkers(workers int) ([]*Report, error) {
	exps := All()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	out := make([]*Report, len(exps))
	if workers <= 1 {
		for i, e := range exps {
			rep, err := e.Run()
			if err != nil {
				return out[:i], fmt.Errorf("core: %s: %w", e.ID, err)
			}
			out[i] = rep
		}
		return out, nil
	}
	errs := make([]error, len(exps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				out[i], errs[i] = exps[i].Run()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], fmt.Errorf("core: %s: %w", exps[i].ID, err)
		}
	}
	return out, nil
}
