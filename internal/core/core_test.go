package core

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/runs"
	"repro/internal/temporal"
)

func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in short mode")
	}
	reps, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(All()) {
		t.Fatalf("ran %d experiments, want %d", len(reps), len(All()))
	}
	for _, r := range reps {
		if !r.Pass {
			t.Errorf("experiment %s failed:\n%s", r.ID, r)
		}
		if len(r.Lines) == 0 {
			t.Errorf("experiment %s produced no findings", r.ID)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "EX", Title: "test", Pass: true}
	r.addf("row %d", 1)
	s := r.String()
	if !strings.Contains(s, "[EX]") || !strings.Contains(s, "PASS") || !strings.Contains(s, "row 1") {
		t.Errorf("rendering = %q", s)
	}
	r.failf("broken %s", "thing")
	if r.Pass {
		t.Error("failf should clear Pass")
	}
	if !strings.Contains(r.String(), "FAIL: broken thing") {
		t.Error("failure line missing")
	}
}

func TestE1Table(t *testing.T) {
	rep, err := E1MuddyChildren(5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("E1 failed:\n%s", rep)
	}
	// Header plus one row per k.
	if len(rep.Lines) != 6 {
		t.Errorf("E1 produced %d lines, want 6", len(rep.Lines))
	}
}

func TestE3HierarchyReport(t *testing.T) {
	rep, err := E3Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("E3 failed:\n%s", rep)
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
}

// TestTemporalCommonIterations pins the Knaster–Tarski step count of each
// C^ε, C^⋄ and C^T fixed point (X₀ = every point, X_{k+1} = E^x(φ ∧ X_k))
// on the OK-protocol and R2–D2 systems, and checks that the evaluator's
// C^x agrees with the explicit ν over the same E^x.
func TestTemporalCommonIterations(t *testing.T) {
	ok, err := temporal.OKSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	r2d2 := R2D2Chain(6, 9).Model(runs.CompleteHistoryView, runs.Interpretation{
		"sent": runs.StablyTrue(runs.SentBy("m")),
	})
	for _, c := range []struct {
		pm          *runs.PointModel
		common, nu  string
		iters, size int
	}{
		{ok, "Ce[2] psi", "Ee[2] (psi & X)", 1, 75},
		{ok, "Cv psi", "Ev (psi & X)", 1, 117},
		{ok, "Ct[4] psi", "Et[4] (psi & X)", 3, 0},
		{ok, "Ce[1] alllost", "Ee[1] (alllost & X)", 1, 0},
		{ok, "Cv alllost", "Ev (alllost & X)", 1, 0},
		{ok, "Ct[2] alllost", "Et[2] (alllost & X)", 1, 0},
		{r2d2, "Ce[1] sent", "Ee[1] (sent & X)", 1, 88},
		{r2d2, "Ce[2] sent", "Ee[2] (sent & X)", 1, 99},
		{r2d2, "Cv sent", "Ev (sent & X)", 0, 120},
		{r2d2, "Ct[3] sent", "Et[3] (sent & X)", 6, 0},
		{r2d2, "Ct[6] sent", "Et[6] (sent & X)", 0, 120},
		{r2d2, "Ce[1]{0} sent", "Ee[1]{0} (sent & X)", 1, 92},
	} {
		nu, iters, err := c.pm.FixpointIterations("X", logic.MustParse(c.nu))
		if err != nil {
			t.Fatal(err)
		}
		common, err := c.pm.Eval(logic.MustParse(c.common))
		if err != nil {
			t.Fatal(err)
		}
		if iters != c.iters || nu.Count() != c.size || !common.Equal(nu) {
			t.Errorf("%s: %d iterations, |nu| = %d, |C| = %d; want %d iterations, size %d",
				c.common, iters, nu.Count(), common.Count(), c.iters, c.size)
		}
	}
}
