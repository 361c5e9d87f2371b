//go:build !race

// Allocation counts are pinned in builds without the race detector, whose
// instrumentation is not what these tests measure.

package kripke_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/runs"
)

// TestExplicitGroupAllocs pins that an explicit agent group costs no
// allocation per evaluation: it resolves into the evaluator's agent arena,
// so a fixpoint over an explicit-G operator (C^T iterates E^T_G) allocates
// no more than over the full group it names.
func TestExplicitGroupAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing the collector triggers runs mid-count
	sys := core.R2D2Chain(32, 40)
	interp := runs.Interpretation{"sent": runs.StablyTrue(runs.SentBy("m"))}
	// allocs measures src on a fresh model (AllocsPerRun's warm-up call
	// builds the partitions it needs): one formula's leftover scratch sets
	// would otherwise serve the next one's first evaluations.
	allocs := func(src string) float64 {
		pm := sys.Model(runs.CompleteHistoryView, interp)
		f := logic.MustParse(src)
		return testing.AllocsPerRun(20, func() {
			if _, err := pm.Eval(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct{ explicit, all string }{
		{"Ct[3]{0,1} sent", "Ct[3] sent"},
		{"E{0,1} sent", "E sent"},
		{"E{1} E{0} sent", "E E sent"}, // nested groups share the arena
	} {
		if got, want := allocs(c.explicit), allocs(c.all); got != want {
			t.Errorf("Eval(%s) = %.1f allocs, Eval(%s) = %.1f", c.explicit, got, c.all, want)
		}
	}
}
