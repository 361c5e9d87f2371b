package repro_test

// Regression: batch evaluation must return verdicts byte-identical to
// per-formula Eval on the systems of the existing experiments — the R2-D2
// delivery chain, the commit window, the coordinated attack, the muddy
// children — with the lazy tables cold.

import (
	"testing"

	"repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
)

// checkBatchMatchesSerial evaluates the batch formula by formula on one
// model and with one EvalBatch on a freshly built twin (cold caches), and
// requires byte-identical denotations.
func checkBatchMatchesSerial(t *testing.T, name string, serial, cold *repro.Model, batch []logic.Formula) {
	t.Helper()
	want := make([]string, len(batch))
	for i, f := range batch {
		s, err := serial.Eval(f)
		if err != nil {
			t.Fatalf("%s: serial eval of %s: %v", name, f, err)
		}
		want[i] = s.String()
	}
	got, err := cold.EvalBatch(batch)
	if err != nil {
		t.Fatalf("%s: EvalBatch: %v", name, err)
	}
	for i := range batch {
		if got[i].String() != want[i] {
			t.Errorf("%s: EvalBatch changed the verdict of %s", name, batch[i])
		}
	}
}

func TestEvalBatchMatchesExperiments(t *testing.T) {
	// E7/ablation system: the R2-D2 message chain of Section 8.
	buildR2D2 := func() *repro.Model {
		sys := core.R2D2Chain(6, 9)
		return sys.Model(repro.CompleteHistoryView, repro.Interpretation{
			"sent": repro.StablyTrue(repro.SentBy("m")),
		}).Model
	}
	checkBatchMatchesSerial(t, "r2d2", buildR2D2(), buildR2D2(), epistemicBatch("sent"))

	// E12/commit-window system of Section 13.
	buildCommit := func() *repro.Model {
		csys, interp, err := repro.CommitSystem(6)
		if err != nil {
			t.Fatal(err)
		}
		return csys.Model(repro.CompleteHistoryView, interp).Model
	}
	cm := buildCommit()
	var cprop string
	for _, f := range cm.Facts() {
		cprop = f
		break
	}
	checkBatchMatchesSerial(t, "commit", cm, buildCommit(), epistemicBatch(cprop))

	// E4/E13 coordinated-attack system.
	buildAttack := func() *repro.Model {
		as, err := attack.Build(4, 10)
		if err != nil {
			t.Fatal(err)
		}
		never := func(protocol.LocalView) bool { return false }
		return as.Sys.Model(runs.CompleteHistoryView, as.Interp(never, never)).Model
	}
	checkBatchMatchesSerial(t, "attack", buildAttack(), buildAttack(), epistemicBatch(attack.IntentProp))

	// E1 muddy children (a plain Kripke model), with the per-child round
	// formulas as the batch — the exact workload muddy.Round evaluates.
	buildMuddy := func() *repro.Model {
		pz, err := muddy.New(8, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return pz.Model()
	}
	var roundBatch []logic.Formula
	for i := 0; i < 8; i++ {
		mi := logic.P(muddy.MuddyProp(i))
		roundBatch = append(roundBatch,
			logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi))))
	}
	roundBatch = append(roundBatch, epistemicBatch(muddy.MuddyProp(0))...)
	checkBatchMatchesSerial(t, "muddy", buildMuddy(), buildMuddy(), roundBatch)
}
