package kripke

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/logic"
)

func TestSetFactAndFacts(t *testing.T) {
	m := NewModel(3, 2)
	if m.NumAgents() != 2 {
		t.Errorf("NumAgents = %d", m.NumAgents())
	}
	m.SetFact(0, "p", true)
	m.SetFact(1, "p", true)
	m.SetFact(1, "p", false)
	m.SetFact(2, "q", false) // setting false on an unknown fact is a no-op
	set := m.FactSet("p")
	if !set.Contains(0) || set.Contains(1) {
		t.Errorf("p holds at %s", set)
	}
	facts := m.Facts()
	sort.Strings(facts)
	if len(facts) != 1 || facts[0] != "p" {
		t.Errorf("Facts = %v (q was never made true)", facts)
	}
	// FactSet returns a copy.
	set.Add(2)
	if m.FactSet("p").Contains(2) {
		t.Error("FactSet exposed internal storage")
	}
}

func TestSameClassAndClassID(t *testing.T) {
	m := NewModel(4, 1)
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(0, 2, 3)
	if !m.SameClass(0, 0, 1) || m.SameClass(0, 1, 2) {
		t.Error("SameClass wrong")
	}
	ids, err := m.GReachIDs(logic.NewGroup(logic.Agent(0)))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != ids[1] {
		t.Error("class ids of merged worlds differ")
	}
	if ids[0] == ids[2] {
		t.Error("class ids of separate worlds coincide")
	}
}

func TestSetLevelOperators(t *testing.T) {
	// KnowSet agrees with formula evaluation.
	m := chainModel(6)
	p, err := m.Eval(logic.P("p"))
	if err != nil {
		t.Fatal(err)
	}
	k0Direct, err := m.Eval(logic.K(0, logic.P("p")))
	if err != nil {
		t.Fatal(err)
	}
	if !m.KnowSet(0, p).Equal(k0Direct) {
		t.Error("KnowSet disagrees with K0 evaluation")
	}
	agents, err := m.GroupAgents(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents) != 2 {
		t.Errorf("GroupAgents(nil) = %v", agents)
	}
}

// TestRestrictZeroAgents restricts agent-free models, one within a single
// bitset word and one of many words, where Restrict has no agent to rename.
func TestRestrictZeroAgents(t *testing.T) {
	for _, n := range []int{10, 4096} {
		m := NewModel(n, 0)
		m.SetTrue(1, "p")
		keep := bitset.New(n)
		keep.Add(1)
		keep.Add(n - 1)
		sub := m.Restrict(keep)
		if sub.NumWorlds() != 2 || sub.NumAgents() != 0 {
			t.Fatalf("n=%d: Restrict = %d worlds, %d agents, want 2, 0", n, sub.NumWorlds(), sub.NumAgents())
		}
		got, err := sub.Eval(logic.C(nil, logic.P("p")))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != "{0}" {
			t.Errorf("n=%d: restricted C p = %s, want {0}", n, got)
		}
	}
}

func TestGReachIDs(t *testing.T) {
	m := chainModel(6)
	ids, err := m.GReachIDs(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The chain is fully connected under both agents together.
	for w := 1; w < 6; w++ {
		if ids[w] != ids[0] {
			t.Errorf("world %d in a different component", w)
		}
	}
	// Under agent 0 alone, only the pairs (2i, 2i+1) are joined.
	ids0, err := m.GReachIDs(logic.NewGroup(0))
	if err != nil {
		t.Fatal(err)
	}
	if ids0[0] != ids0[1] || ids0[1] == ids0[2] {
		t.Errorf("agent-0 components wrong: %v", ids0)
	}
	if _, err := m.GReachIDs(logic.NewGroup(9)); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestRefineAgentSemiPublicAnnouncement(t *testing.T) {
	// RefineAgent models a telling whose OCCURRENCE is commonly known
	// (only its content is directed at one agent). Worlds: 0 (p), 1 (~p);
	// both agents confused. Refining agent 0 by p makes agent 0 know
	// whether p, leaves agent 1 ignorant of p itself — but agent 1 now
	// knows that agent 0 knows whether p.
	m := NewModel(2, 2)
	m.SetTrue(0, "p")
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(1, 0, 1)
	m.SetName(0, "yes")
	m.SetName(1, "no")

	pSet, err := m.Eval(logic.P("p"))
	if err != nil {
		t.Fatal(err)
	}
	refined := m.RefineAgent(0, pSet)

	k0, err := refined.Eval(logic.MustParse("K0 p | K0 ~p"))
	if err != nil {
		t.Fatal(err)
	}
	if !k0.IsFull() {
		t.Error("agent 0 should know whether p after refinement")
	}
	k1, err := refined.Eval(logic.MustParse("K1 p | K1 ~p"))
	if err != nil {
		t.Fatal(err)
	}
	if !k1.IsEmpty() {
		t.Error("agent 1 should remain ignorant of p")
	}
	k1k0, err := refined.Eval(logic.MustParse("K1 (K0 p | K0 ~p)"))
	if err != nil {
		t.Fatal(err)
	}
	if !k1k0.IsFull() {
		t.Error("agent 1 should know that agent 0 knows whether p (the telling is common knowledge)")
	}
	// Names and facts survive.
	if w, ok := refined.WorldByName("yes"); !ok || !refined.FactSet("p").Contains(w) {
		t.Error("names/facts not preserved by RefineAgent")
	}
	// Refining by the empty set collapses nothing new for others.
	empty := bitset.New(2)
	r2 := m.RefineAgent(1, empty)
	if !r2.SameClass(1, 0, 1) {
		t.Error("refining by the empty set should keep the class together")
	}
}

// TestNestedExplicitGroups: explicit groups nested inside one another's
// operands each keep their own agents (they share one resolution arena),
// so every formula agrees with its unfolding into per-agent K.
func TestNestedExplicitGroups(t *testing.T) {
	m := buildWideModel(300, 4, 3)
	for _, c := range []struct{ nested, unfolded string }{
		{"E{0,1} E{2,3} p", "(K0 (K2 p & K3 p)) & (K1 (K2 p & K3 p))"},
		{"E{3} (q | E{0,2} p)", "K3 (q | (K0 p & K2 p))"},
		{"S{1,2} E{0,3} p", "K1 (K0 p & K3 p) | K2 (K0 p & K3 p)"},
	} {
		got, err := m.Eval(logic.MustParse(c.nested))
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Eval(logic.MustParse(c.unfolded))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s = %s, want %s (%s)", c.nested, got, want, c.unfolded)
		}
	}
	if _, err := m.Eval(logic.MustParse("E{0} E{7} p")); err == nil {
		t.Error("an out-of-range agent in a nested group evaluated")
	}
}

// TestOneAgentGroupUsesOwnPartition: for G = {a}, the joint view of D_G
// and the reachability components of C_G are agent a's own partition, so
// D{a} p and C{a} p equal K_a p in one batch, and neither adds a joint or
// reach table.
func TestOneAgentGroupUsesOwnPartition(t *testing.T) {
	const n, agents = 70, 3 // not a multiple of 64: partial last word
	m := NewModel(n, agents)
	rng := rand.New(rand.NewSource(23))
	for w := 0; w < n; w++ {
		if rng.Intn(3) > 0 {
			m.SetTrue(w, "p")
		}
	}
	for a := 0; a < agents; a++ {
		for i := 0; i < n/2; i++ {
			m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
		}
	}
	var fs []logic.Formula
	for a := 0; a < agents; a++ {
		g := logic.NewGroup(logic.Agent(a))
		p := logic.P("p")
		fs = append(fs, logic.K(logic.Agent(a), p), logic.D(g, p), logic.C(g, p))
	}
	sets, err := m.EvalBatch(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sets); i += 3 {
		if c := sets[i].Count(); c == 0 || c == m.FactSet("p").Count() {
			t.Fatalf("%v holds at %d worlds: the model does not tell K from p", fs[i], c)
		}
		if !sets[i+1].Equal(sets[i]) || !sets[i+2].Equal(sets[i]) {
			t.Fatalf("%v, %v, %v disagree: %v, %v, %v",
				fs[i], fs[i+1], fs[i+2], sets[i].Elements(), sets[i+1].Elements(), sets[i+2].Elements())
		}
	}
	tb := m.tables()
	tb.mu.RLock()
	joint, reach := len(tb.joint), len(tb.reach)
	tb.mu.RUnlock()
	if joint != 0 || reach != 0 {
		t.Fatalf("one-agent groups added %d joint and %d reach tables", joint, reach)
	}
}

// TestEvalDoesNotPinModel pins that evaluating on a model registers it
// nowhere global: once the caller drops the model, one collection frees it
// together with its evaluators. The finalizer sits on the model's p column,
// which only the model references; the model itself is in a cycle with its
// idle evaluators (model → freelist → evaluator → model), and a finalizer
// on a cycle member would never run.
func TestEvalDoesNotPinModel(t *testing.T) {
	freed := make(chan struct{})
	func() {
		m := NewModel(4, 2)
		m.SetTrue(0, "p")
		m.SetTrue(1, "p")
		m.Indistinguishable(0, 0, 1)
		runtime.SetFinalizer(m.valuation["p"], func(*bitset.Set) { close(freed) })
		if _, err := m.Eval(logic.K(0, logic.P("p"))); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("model still reachable after a collection: an evaluator pool pins it")
	}
}
