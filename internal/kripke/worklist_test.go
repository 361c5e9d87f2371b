package kripke

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// nuBodies builds the νX bodies the worklist path recognizes, over a model
// with at least two agents: every modal operator, with and without closed
// conjuncts.
func nuBodies(v string) []logic.Formula {
	x := logic.X(v)
	g := logic.NewGroup(0, 1)
	return []logic.Formula{
		logic.E(nil, logic.Conj(logic.P("p"), x)),
		logic.E(g, logic.Conj(logic.P("p"), x)),
		logic.E(nil, x),
		logic.K(0, logic.Conj(logic.P("q"), x)),
		logic.K(1, x),
		logic.D(g, logic.Conj(logic.P("p"), x)),
		logic.C(g, logic.Conj(logic.Disj(logic.P("p"), logic.P("q")), x)),
		logic.E(nil, logic.Conj(logic.P("p"), logic.P("q"), x)),
		logic.E(nil, logic.Conj(logic.K(0, logic.P("p")), x)),
		// Nested supported ν inside φ: regression for the wparts scratch —
		// the inner fixpoint re-enters the worklist machinery while the
		// outer body is being set up.
		logic.E(nil, logic.Conj(logic.GFP("Y", logic.K(1, logic.Conj(logic.P("q"), logic.X("Y")))), x)),
	}
}

// TestQuickWorklistMatchesNaive: on random models, the worklist path must
// compute exactly the set and exactly the iteration count of the naive
// Knaster–Tarski loop, for every recognized body shape.
func TestQuickWorklistMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 2+rng.Intn(40), 2+rng.Intn(3))
		for _, body := range nuBodies("X") {
			ev := m.getEvaluator()
			mod, phi, ok := worklistShape("X", body)
			if !ok {
				t.Fatalf("worklistShape rejected %s", body)
			}
			// Same order as the fixpoint dispatch: φ first (it may re-enter
			// the worklist machinery), then the partition scratch.
			phiSet, owned, err := ev.eval(phi, nil)
			if err != nil {
				t.Fatal(err)
			}
			parts, ok := ev.worklistParts(mod)
			if !ok {
				t.Fatalf("worklistParts rejected %s", body)
			}
			fast := ev.fixpointWorklist(parts, phiSet)
			fastIters := ev.fixIters
			ev.releaseIf(phiSet, owned)

			slow, slowOwned, err := ev.fixpointNaive("X", body, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			slowIters := ev.fixIters

			if !fast.Equal(slow) {
				t.Errorf("seed %d: νX.%s: worklist %s != naive %s", seed, body, fast, slow)
				return false
			}
			if fastIters != slowIters {
				t.Errorf("seed %d: νX.%s: worklist took %d iterations, naive %d", seed, body, fastIters, slowIters)
				return false
			}
			ev.release(fast)
			ev.releaseIf(slow, slowOwned)
			m.putEvaluator(ev)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestWorklistShape: the shape matcher must accept exactly the support
// shapes (so everything else falls back to the naive loop rather than be
// mis-evaluated).
func TestWorklistShape(t *testing.T) {
	x := logic.X("X")
	cases := []struct {
		body logic.Formula
		want bool
	}{
		{logic.P("p"), false},                                          // no modality
		{logic.Conj(logic.P("p"), logic.E(nil, x)), false},             // modality below a conjunction
		{logic.E(nil, logic.Disj(logic.P("p"), x)), false},             // disjunctive body
		{logic.E(nil, logic.Conj(x, x)), false},                        // variable twice
		{logic.E(nil, logic.Conj(logic.K(0, x), x)), false},            // variable inside a conjunct
		{logic.E(nil, logic.Neg(x)), false},                            // non-positive
		{logic.S(nil, x), false},                                       // S_G has no class-failure form
		{logic.E(nil, logic.Conj(logic.P("p"), logic.X("X2"))), false}, // X absent
		{logic.E(nil, x), true},
		{logic.E(nil, logic.Conj(logic.P("p"), x)), true},
		{logic.K(0, logic.Conj(logic.P("p"), x)), true},
		{logic.D(logic.NewGroup(0, 1), logic.Conj(logic.P("p"), x)), true},
		{logic.C(logic.NewGroup(0, 1), logic.Conj(logic.P("p"), x)), true},
		// A *different* free variable in a conjunct is allowed: it is
		// constant during this fixpoint's iteration.
		{logic.E(nil, logic.Conj(logic.X("Y"), x)), true},
	}
	for _, c := range cases {
		if _, _, ok := worklistShape("X", c.body); ok != c.want {
			t.Errorf("worklistShape(X, %s) = %v, want %v", c.body, ok, c.want)
		}
	}
}

// TestWorklistViaEval: the public entry points (Eval of a ν formula,
// CommonKnowledgeByIteration) take the worklist path and still agree with
// the component-based C_G on structured and random models.
func TestWorklistViaEval(t *testing.T) {
	models := []*Model{chainModel(1), chainModel(2), chainModel(65), chainModel(256)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		models = append(models, randomModel(rng, 1+rng.Intn(80), 1+rng.Intn(4)))
	}
	// A model where φ is empty, and one where φ is full.
	empty := NewModel(6, 2)
	empty.Indistinguishable(0, 0, 1)
	full := NewModel(6, 2)
	full.Indistinguishable(1, 2, 3)
	for w := 0; w < 6; w++ {
		full.SetTrue(w, "p")
	}
	models = append(models, empty, full)

	for mi, m := range models {
		direct, err := m.Eval(logic.C(nil, logic.P("p")))
		if err != nil {
			t.Fatal(err)
		}
		viaNu, err := m.Eval(logic.MustParse("nu X . E (p & X)"))
		if err != nil {
			t.Fatal(err)
		}
		iter, _, err := m.CommonKnowledgeByIteration(nil, logic.P("p"))
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(viaNu) || !direct.Equal(iter) {
			t.Errorf("model %d: C=%s νX=%s iter=%s disagree", mi, direct, viaNu, iter)
		}
	}
}
