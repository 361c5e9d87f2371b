package fixpoint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/protocol"
	"repro/internal/runs"
)

// chain builds the two-agent chain-of-ignorance model (see the kripke
// tests): p holds everywhere but the last world; E^k p shrinks one world
// per application.
func chain(n int) *kripke.Model {
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}
	return m
}

func TestGFPOfCommonKnowledgeBody(t *testing.T) {
	m := chain(10)
	body := logic.MustParse("E (p & X)")
	f := FuncOf(m, body, "X", nil)
	gfp, iters, err := GFP(f, m.NumWorlds())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Eval(logic.MustParse("C p"))
	if err != nil {
		t.Fatal(err)
	}
	if !gfp.Equal(c) {
		t.Error("GFP of E(p ∧ X) != C p")
	}
	if iters < 5 {
		t.Errorf("chain(10) converged in %d iterations; expected a slow descent", iters)
	}
}

func TestLFPLeastVsGreatest(t *testing.T) {
	m := chain(8)
	body := logic.MustParse("E (p & X)")
	f := FuncOf(m, body, "X", nil)
	lfp, _, err := LFP(f, m.NumWorlds())
	if err != nil {
		t.Fatal(err)
	}
	gfp, _, err := GFP(f, m.NumWorlds())
	if err != nil {
		t.Fatal(err)
	}
	if !lfp.SubsetOf(gfp) {
		t.Error("μ should be contained in ν")
	}
	// For this body the least fixed point is empty (false is a solution,
	// as the paper notes).
	if !lfp.IsEmpty() {
		t.Errorf("LFP = %s, want empty", lfp)
	}
	// Both are fixed points.
	for _, fp := range []*bitset.Set{lfp, gfp} {
		ok, err := IsFixedPoint(f, fp)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Error("reported fixed point is not fixed")
		}
	}
}

func TestMonotonicityFollowsFromPositivity(t *testing.T) {
	m := chain(12)
	rng := rand.New(rand.NewSource(7))
	positive := []string{
		"E (p & X)",
		"K0 X | p",
		"C{0,1} (X | p)",
		"D (p -> X)",
		"S X & true",
	}
	for _, src := range positive {
		body := logic.MustParse(src)
		if err := CheckMonotone(FuncOf(m, body, "X", nil), m.NumWorlds(), 60, rng); err != nil {
			t.Errorf("%s should be monotone: %v", src, err)
		}
	}
	// A negative occurrence breaks monotonicity (constructed directly;
	// the parser rejects ~X under ν but FuncOf takes raw bodies).
	neg := logic.Neg(logic.X("X"))
	if err := CheckMonotone(FuncOf(m, neg, "X", nil), m.NumWorlds(), 60, rng); err == nil {
		t.Error("~X should not be monotone")
	}
}

func TestGeneralFixedPointAxiom(t *testing.T) {
	m := chain(9)
	for _, src := range []string{
		"nu X . E (p & X)",
		"nu X . p & K0 X",
		"nu X . p | E X",
	} {
		nu, ok := logic.MustParse(src).(logic.Nu)
		if !ok {
			t.Fatalf("%s did not parse to Nu", src)
		}
		if err := CheckFixedPointAxiom(m, nu); err != nil {
			t.Error(err)
		}
	}
}

func TestGeneralInductionRule(t *testing.T) {
	m := chain(9)
	nu := logic.MustParse("nu X . E (p & X)").(logic.Nu)
	samples := []logic.Formula{
		logic.P("p"),
		logic.C(nil, logic.P("p")),
		logic.False,
		logic.Disj(logic.P("p"), logic.Neg(logic.P("p"))),
	}
	if err := CheckInductionRule(m, nu, samples); err != nil {
		t.Error(err)
	}
}

// TestQuickGFPAgreesWithEvalNu cross-checks the package GFP against the
// kripke evaluator's ν on random models.
func TestQuickGFPAgreesWithEvalNu(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := kripke.NewModel(n, 2)
		for w := 0; w < n; w++ {
			if rng.Intn(2) == 0 {
				m.SetTrue(w, "p")
			}
		}
		for a := 0; a < 2; a++ {
			for k := 0; k < n; k++ {
				m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
			}
		}
		body := logic.MustParse("E (p & X)")
		gfp, _, err := GFP(FuncOf(m, body, "X", nil), n)
		if err != nil {
			return false
		}
		direct, err := m.Eval(logic.Nu{Var: "X", Body: body})
		if err != nil {
			return false
		}
		return gfp.Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEventualTowerExceedsGFP reproduces the Appendix A / Section 11
// counterexample finitely: on the coordinated-attack system, the tower
// (E^⋄)^k intent holds at points where the greatest fixed point C^⋄ intent
// does not — the gfp is strictly below the infinite conjunction.
func TestEventualTowerExceedsGFP(t *testing.T) {
	// A handshake over an unreliable channel, initiator only in "go".
	step := func(v protocol.LocalView) []protocol.Outgoing {
		peer := 1 - v.Me
		if v.Me == 0 && v.Init == "go" && len(v.Sent) == 0 && len(v.Received) == 0 {
			return []protocol.Outgoing{{To: peer, Payload: "m1"}}
		}
		if len(v.Received) > 0 {
			replies := len(v.Sent)
			if v.Me == 0 && v.Init == "go" {
				replies--
			}
			if replies < len(v.Received) {
				return []protocol.Outgoing{{To: peer, Payload: "mx"}}
			}
		}
		return nil
	}
	protos := []protocol.Protocol{protocol.Func(step), protocol.Func(step)}
	cfgs := []protocol.Config{
		{Name: "go", Init: []string{"go", ""}},
		{Name: "idle", Init: []string{"", ""}},
	}
	sys, err := protocol.Generate(protos, protocol.Unreliable{Delay: 1}, cfgs, 10,
		protocol.Options{MaxMessagesPerRun: 4})
	if err != nil {
		t.Fatal(err)
	}
	pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"intent": func(r *runs.Run, _ runs.Time) bool { return r.Init[0] == "go" },
	})
	op := func(f logic.Formula) logic.Formula { return logic.Eev(nil, f) }
	tower, gfp, err := TowerVsGFP(pm.Model, op, logic.P("intent"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !gfp.SubsetOf(tower) {
		t.Error("gfp should imply every tower level")
	}
	diff := tower.Clone()
	diff.AndNot(gfp)
	if diff.IsEmpty() {
		t.Error("expected points where the (E^⋄)^k tower holds but C^⋄ fails")
	}
	if !gfp.IsEmpty() {
		t.Errorf("C^⋄ intent should be empty here, got %s", gfp)
	}
	// The evaluator's own C^⋄ (its fixpoint loop) agrees with this loop
	// outside it.
	direct, err := pm.Eval(logic.Cev(nil, logic.P("intent")))
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(gfp) {
		t.Errorf("Eval(C^⋄ intent) = %s, TowerVsGFP gfp = %s", direct, gfp)
	}

	// Over a reliable channel the same handshake always delivers m1, so
	// the responder eventually learns the intent in the "go" run: C^⋄
	// intent holds at every point of that run and nowhere else. Both
	// fixed-point loops must find exactly that set, so an E^⋄ that drops
	// a point fails here even though both loops share it.
	sys, err = protocol.Generate(protos, protocol.Reliable{Delay: 1}, cfgs, 10,
		protocol.Options{MaxMessagesPerRun: 4})
	if err != nil {
		t.Fatal(err)
	}
	pm = sys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"intent": func(r *runs.Run, _ runs.Time) bool { return r.Init[0] == "go" },
	})
	want, err := pm.Eval(logic.P("intent"))
	if err != nil {
		t.Fatal(err)
	}
	if want.IsEmpty() || want.IsFull() {
		t.Fatalf("intent holds at %s of %d points: want exactly the go run's", want, pm.NumWorlds())
	}
	if _, gfp, err = TowerVsGFP(pm.Model, op, logic.P("intent"), 3); err != nil {
		t.Fatal(err)
	}
	if direct, err = pm.Eval(logic.Cev(nil, logic.P("intent"))); err != nil {
		t.Fatal(err)
	}
	if !gfp.Equal(want) || !direct.Equal(want) {
		t.Errorf("reliable channel: TowerVsGFP gfp = %s, Eval(C^⋄ intent) = %s, want the go run %s", gfp, direct, want)
	}
}

func TestGFPNonConvergenceReported(t *testing.T) {
	// A deliberately oscillating (non-monotone) function: complement.
	f := func(a *bitset.Set) (*bitset.Set, error) {
		return bitset.Not(a), nil
	}
	if _, _, err := GFP(f, 8); err == nil {
		t.Error("complement has no fixed point; GFP should report failure")
	}
}

func BenchmarkGFPChain(b *testing.B) {
	m := chain(256)
	body := logic.MustParse("E (p & X)")
	f := FuncOf(m, body, "X", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GFP(f, m.NumWorlds()); err != nil {
			b.Fatal(err)
		}
	}
}
