// Command mcknow is an epistemic model checker: it loads a finite Kripke
// model from a JSON file and evaluates formulas of the knowledge language
// over it.
//
// Usage:
//
//	mcknow -model m.json "C{0,1} (p & K0 p)" "E p -> D p"
//
// The formula batch is evaluated in one kripke.EvalBatch, whose memo spans
// the batch, and, under -quotient, on the bisimulation quotient of the
// model.
// -seed submits the batch in a seeded permuted order and prints results in
// the order given — verdicts are order-independent, so equal seeds (and
// in fact all seeds) reproduce the output byte for byte; varying the seed
// exercises exactly that property.
//
// Model file format:
//
//	{
//	  "agents": 2,
//	  "worlds": ["w0", "w1", "w2"],
//	  "facts": {"p": ["w0", "w1"]},
//	  "indistinguishable": {"0": [["w0", "w1"]], "1": [["w1", "w2"]]}
//	}
//
// Each entry of "indistinguishable" lists, per agent, groups of worlds the
// agent cannot tell apart (closed under reflexivity/symmetry/transitivity
// automatically).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// seededPerm returns a deterministic Fisher-Yates permutation of [0, n).
func seededPerm(seed int64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	st := faults.NewStream(seed)
	for i := n - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

type modelFile struct {
	Agents            int                   `json:"agents"`
	Worlds            []string              `json:"worlds"`
	Facts             map[string][]string   `json:"facts"`
	Indistinguishable map[string][][]string `json:"indistinguishable"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcknow:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcknow", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the model JSON file")
	quotient := fs.String("quotient", "auto", "evaluate the batch on the bisimulation quotient: auto, on, off")
	seed := fs.Int64("seed", 1,
		"seed of the batch submission order; verdicts are order-independent, so output is identical for every seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no formulas given")
	}

	m, err := loadModel(*modelPath)
	if err != nil {
		return err
	}

	// Quotient-before-eval: the whole formula batch is checked on the
	// bisimulation quotient (when it shrinks the model) and every verdict
	// mapped back to the original worlds, so names print unchanged.
	var q *kripke.Quotiented
	switch *quotient {
	case "auto":
		q = m.QuotientForEval(0)
	case "on":
		q = m.QuotientForEval(1)
	case "off":
		q = m.QuotientForEval(m.NumWorlds() + 1)
	default:
		return fmt.Errorf("bad -quotient %q (want auto, on or off)", *quotient)
	}
	if q.Quotiented() {
		fmt.Printf("(evaluating on the %d-world quotient of the %d-world model)\n",
			q.QuotientWorlds(), q.NumWorlds())
	}

	// Parse the whole batch first, then evaluate it in one EvalBatch: the
	// formulas are queries against one shared model, and the batch memo
	// shares their common subformulas.
	formulas := make([]logic.Formula, 0, fs.NArg())
	for _, src := range fs.Args() {
		f, err := logic.Parse(src)
		if err != nil {
			return fmt.Errorf("parse %q: %w", src, err)
		}
		formulas = append(formulas, f)
	}
	// Submit the batch in a seeded permuted order and map the verdicts
	// back: batch evaluation is order-independent, so the printed output
	// does not depend on -seed — the shuffle exists to exercise that.
	perm := seededPerm(*seed, len(formulas))
	shuffled := make([]logic.Formula, len(formulas))
	for i, j := range perm {
		shuffled[j] = formulas[i]
	}
	shuffledSets, err := q.EvalBatch(shuffled)
	sets := make([]*bitset.Set, len(formulas))
	if err == nil {
		for i, j := range perm {
			sets[i] = shuffledSets[j]
		}
	}
	if err != nil {
		// Re-attribute the batch error to its formula: EvalBatch stops at
		// the first failing formula of the shuffled batch, which need not
		// be the first one given.
		for _, f := range formulas {
			if _, ferr := q.Eval(f); ferr != nil {
				return fmt.Errorf("eval %q: %w", f.String(), ferr)
			}
		}
		return fmt.Errorf("eval: %w", err)
	}
	for i, f := range formulas {
		set := sets[i]
		fmt.Printf("%s\n", f)
		switch {
		case set.IsFull():
			fmt.Println("  valid (holds at every world)")
		case set.IsEmpty():
			fmt.Println("  unsatisfiable in this model (holds nowhere)")
		default:
			fmt.Print("  holds at:")
			set.ForEach(func(w int) bool {
				fmt.Printf(" %s", m.Name(w))
				return true
			})
			fmt.Println()
		}
	}
	return nil
}

func loadModel(path string) (*kripke.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if mf.Agents < 1 {
		return nil, fmt.Errorf("%s: agents must be >= 1", path)
	}
	if len(mf.Worlds) == 0 {
		return nil, fmt.Errorf("%s: no worlds", path)
	}
	m := kripke.NewModel(len(mf.Worlds), mf.Agents)
	idx := make(map[string]int, len(mf.Worlds))
	for i, name := range mf.Worlds {
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("%s: duplicate world %q", path, name)
		}
		idx[name] = i
		m.SetName(i, name)
	}
	lookup := func(name string) (int, error) {
		w, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("%s: unknown world %q", path, name)
		}
		return w, nil
	}
	for fact, worlds := range mf.Facts {
		for _, name := range worlds {
			w, err := lookup(name)
			if err != nil {
				return nil, err
			}
			m.SetTrue(w, fact)
		}
	}
	for agentStr, groups := range mf.Indistinguishable {
		a, err := strconv.Atoi(agentStr)
		if err != nil || a < 0 || a >= mf.Agents {
			return nil, fmt.Errorf("%s: bad agent %q", path, agentStr)
		}
		for _, group := range groups {
			for i := 1; i < len(group); i++ {
				w0, err := lookup(group[0])
				if err != nil {
					return nil, err
				}
				wi, err := lookup(group[i])
				if err != nil {
					return nil, err
				}
				m.Indistinguishable(a, w0, wi)
			}
		}
	}
	return m, nil
}
