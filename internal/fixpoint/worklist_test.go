package fixpoint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// TestQuickGFPWorklistAgrees: the evaluator's chaotic iteration of
// νX.E(φ ∧ X) (CommonKnowledgeByIteration, which takes the worklist path)
// must compute the same fixed point, in the same number of rounds, as the
// generic downward iteration of the same operator outside the evaluator —
// and both must equal C_G φ.
func TestQuickGFPWorklistAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		worlds := 2 + rng.Intn(40)
		agents := 1 + rng.Intn(3)
		m := kripke.NewModel(worlds, agents)
		for w := 0; w < worlds; w++ {
			if rng.Intn(2) == 0 {
				m.SetTrue(w, "p")
			}
		}
		for a := 0; a < agents; a++ {
			for i := rng.Intn(worlds); i > 0; i-- {
				m.Indistinguishable(a, rng.Intn(worlds), rng.Intn(worlds))
			}
		}
		phi := logic.P("p")

		wl, wlRounds, err := m.CommonKnowledgeByIteration(nil, phi)
		if err != nil {
			t.Fatal(err)
		}

		fn := FuncOf(m, logic.E(nil, logic.Conj(phi, logic.X("X"))), "X", nil)
		gfp, gfpIters, err := GFP(fn, worlds)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := m.Eval(logic.C(nil, phi))
		if err != nil {
			t.Fatal(err)
		}
		if !wl.Equal(gfp) || !wl.Equal(direct) {
			t.Errorf("seed %d: worklist %s, GFP %s, C %s disagree", seed, wl, gfp, direct)
			return false
		}
		if wlRounds != gfpIters {
			t.Errorf("seed %d: worklist %d rounds, GFP %d iterations", seed, wlRounds, gfpIters)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
