package fixpoint_test

import (
	"fmt"

	"repro/internal/fixpoint"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// ExampleFuncOf views the Appendix A body E(p ∧ X) as a set function of X
// and computes its greatest fixed point by downward iteration — the
// fixed-point characterization of common knowledge. On a 6-world chain of
// ignorance the iteration sheds one world per step, illustrating why no
// finite level of "everyone knows that everyone knows…" reaches C p.
func ExampleFuncOf() {
	n := 6
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}

	f := fixpoint.FuncOf(m, logic.MustParse("E (p & X)"), "X", nil)
	gfp, iters, err := fixpoint.GFP(f, n)
	if err != nil {
		panic(err)
	}
	fmt.Printf("gfp of E(p & X) after %d iterations: %s\n", iters, gfp)

	ck, err := m.Eval(logic.MustParse("C p"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("C p by reachability components:      %s\n", ck)
	// Output:
	// gfp of E(p & X) after 5 iterations: {}
	// C p by reachability components:      {}
}

// ExampleGFP computes the same fixed point with the evaluator's own
// chaotic iteration: Model.CommonKnowledgeByIteration evaluates
// νX.E(p ∧ X) by propagating only the worlds that left the approximant —
// same result, same round count as the downward iteration above, linear
// instead of quadratic total work.
func ExampleGFP() {
	n := 6
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}

	gfp, rounds, err := m.CommonKnowledgeByIteration(nil, logic.P("p"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("worklist gfp after %d rounds: %s\n", rounds, gfp)
	// Output:
	// worklist gfp after 5 rounds: {}
}
