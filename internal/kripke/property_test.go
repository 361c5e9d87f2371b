package kripke

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// randModel builds a random model: n worlds, numAgents agents, random
// valuation columns for props p/q/r, and random indistinguishability edges
// per agent (edge-based, so the DSU construction path is exercised).
func randModel(rng *rand.Rand, n, numAgents int) *Model {
	m := NewModel(n, numAgents)
	for w := 0; w < n; w++ {
		m.SetName(w, fmt.Sprintf("v%d", w))
		if rng.Intn(2) == 0 {
			m.SetTrue(w, "p")
		}
		if rng.Intn(3) == 0 {
			m.SetTrue(w, "q")
		}
		if rng.Intn(5) == 0 {
			m.SetTrue(w, "r")
		}
	}
	for a := 0; a < numAgents; a++ {
		edges := rng.Intn(2 * n)
		for e := 0; e < edges; e++ {
			m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
		}
	}
	return m
}

// propertyFormulas is a battery covering every knowledge operator, with
// groups drawn from the model's agents.
func propertyFormulas(numAgents int) []logic.Formula {
	p, q, r := logic.P("p"), logic.P("q"), logic.P("r")
	g2 := logic.NewGroup(0, logic.Agent(numAgents-1))
	fs := []logic.Formula{
		p,
		logic.Neg(q),
		logic.Conj(p, logic.Neg(r)),
		logic.K(0, p),
		logic.K(logic.Agent(numAgents-1), logic.Disj(p, q)),
		logic.E(nil, p),
		logic.S(nil, logic.Neg(p)),
		logic.E(g2, logic.Imp(q, p)),
		logic.D(nil, p),
		logic.D(g2, logic.Conj(p, q)),
		logic.C(nil, logic.Disj(p, q, r)),
		logic.C(g2, p),
		logic.EK(nil, 3, p),
		logic.K(0, logic.C(g2, logic.Disj(p, q))),
		logic.GFP("Z", logic.E(nil, logic.Conj(p, logic.X("Z")))),
	}
	return fs
}

// restrictByHand rebuilds the submodel of m induced by keep from scratch
// with the incremental, edge-based API — the reference Restrict is checked
// against.
func restrictByHand(m *Model, keep *bitset.Set) *Model {
	old := keep.Elements()
	sub := NewModel(len(old), m.NumAgents())
	for i, w := range old {
		for _, prop := range m.Facts() {
			if m.FactSet(prop).Contains(w) {
				sub.SetTrue(i, prop)
			}
		}
	}
	for a := 0; a < m.NumAgents(); a++ {
		for i := 0; i < len(old); i++ {
			for j := i + 1; j < len(old); j++ {
				if m.SameClass(a, old[i], old[j]) {
					sub.Indistinguishable(a, i, j)
				}
			}
		}
	}
	return sub
}

// TestRestrictAgreesWithHandRestriction is the guard on the columnar
// construction paths: evaluating on Restrict(keep) — the gathered fact
// columns and the renamed class ids — must agree with evaluating on a model
// rebuilt by hand over the kept worlds.
func TestRestrictAgreesWithHandRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(120)
		numAgents := 1 + rng.Intn(5)
		m := randModel(rng, n, numAgents)
		formulas := propertyFormulas(numAgents)

		// Warm the derived caches (joint views, reachability, partitions)
		// so Restrict reads a model whose tables are already built.
		for _, f := range formulas {
			if _, err := m.Eval(f); err != nil {
				t.Fatalf("trial %d: warm eval %s: %v", trial, f, err)
			}
		}

		// Random non-empty keep set.
		keep := bitset.New(n)
		for w := 0; w < n; w++ {
			if rng.Intn(3) != 0 {
				keep.Add(w)
			}
		}
		if keep.IsEmpty() {
			keep.Add(rng.Intn(n))
		}

		sub := m.Restrict(keep)
		ref := restrictByHand(m, keep)

		if got, want := sub.NumWorlds(), keep.Count(); got != want {
			t.Fatalf("trial %d: Restrict has %d worlds, want %d", trial, got, want)
		}
		for _, f := range formulas {
			got, err := sub.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on Restrict: %v", trial, f, err)
			}
			want, err := ref.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on reference: %v", trial, f, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: Eval(%s) on Restrict = %s, want %s (keep=%s)",
					trial, f, got, want, keep)
			}
		}

		// A second restriction chained on the first restricts a model whose
		// relations are installed class ids rather than union-finds.
		keep2 := bitset.New(sub.NumWorlds())
		for w := 0; w < sub.NumWorlds(); w++ {
			if rng.Intn(4) != 0 {
				keep2.Add(w)
			}
		}
		if keep2.IsEmpty() {
			keep2.Add(0)
		}
		sub2 := sub.Restrict(keep2)
		ref2 := restrictByHand(ref, keep2)
		for _, f := range formulas {
			got, err := sub2.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on chained Restrict: %v", trial, f, err)
			}
			want, err := ref2.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on chained reference: %v", trial, f, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: chained Eval(%s) = %s, want %s", trial, f, got, want)
			}
		}
	}
}

// TestRestrictThenMutateRebuildsJoint pins the invalidation contract:
// incremental construction on a restricted model must discard the
// joint-view partitions memoized on it, or D_G would be answered from the
// pre-mutation relations.
func TestRestrictThenMutateRebuildsJoint(t *testing.T) {
	m := NewModel(3, 2)
	m.SetTrue(0, "p")
	m.SetTrue(1, "p")
	m.Indistinguishable(0, 0, 2) // agent 0 confuses 0 and 2; agent 1 discrete
	g := logic.NewGroup(0, 1)
	// Restrict to everything and memoize the submodel's joint partition
	// (still discrete: agent 1 separates all worlds).
	sub := m.Restrict(bitset.NewFull(3))
	if _, err := sub.Eval(logic.D(g, logic.P("p"))); err != nil {
		t.Fatal(err)
	}
	// Mutate the restricted model: now agent 1 confuses 0 and 2 as well,
	// so the joint view of {0,1} merges them.
	sub.Indistinguishable(1, 0, 2)
	got, err := sub.Eval(logic.D(g, logic.P("p")))
	if err != nil {
		t.Fatal(err)
	}
	// World 2 falsifies p and is now jointly indistinguishable from 0.
	want := bitset.New(3)
	want.Add(1)
	if !got.Equal(want) {
		t.Fatalf("D_G p after post-restriction mutation = %s, want %s", got, want)
	}
}

// TestRedundantEdgeAfterEval pins that an edge which changes no relation
// (reflexive, repeated, or inside one class) leaves the model readable:
// after an evaluation, such an edge followed by any reader of the relations
// must answer as the same model built without it.
func TestRedundantEdgeAfterEval(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(11))
	facts := make([]int, n)
	for w := range facts {
		facts[w] = rng.Intn(8)
	}
	var edges [][3]int // agents 0 and 1 only: agent 2 stays discrete
	for a := 0; a < 2; a++ {
		for e := 0; e < n/2; e++ {
			edges = append(edges, [3]int{a, rng.Intn(n), rng.Intn(n)})
		}
	}
	build := func() *Model {
		m := NewModel(n, 3)
		for w, f := range facts {
			for i, prop := range []string{"p", "q", "r"} {
				if f&(1<<i) != 0 {
					m.SetTrue(w, prop)
				}
			}
		}
		for _, e := range edges {
			m.Indistinguishable(e[0], e[1], e[2])
		}
		return m
	}
	fresh := build()
	redundant := [][3]int{{2, 0, 0}, {0, 5, 5}, edges[0]}
	for v := 1; v < n && len(redundant) == 3; v++ {
		if fresh.SameClass(1, 0, v) {
			redundant = append(redundant, [3]int{1, v, 0})
		}
	}
	if len(redundant) == 3 {
		t.Fatalf("agent 1 has no class beyond a singleton at world 0")
	}
	keep := bitset.New(n)
	for w := 0; w < n; w++ {
		if w%3 != 0 {
			keep.Add(w)
		}
	}
	sameEvals := func(t *testing.T, got, want *Model) {
		t.Helper()
		for _, f := range propertyFormulas(3) {
			g, err1 := got.Eval(f)
			w, err2 := want.Eval(f)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval %s: %v, %v", f, err1, err2)
			}
			if !g.Equal(w) {
				t.Fatalf("%s = %s, want %s", f, g, w)
			}
		}
	}
	readers := []struct {
		name string
		read func(t *testing.T, m *Model)
	}{
		{"Eval", func(t *testing.T, m *Model) { sameEvals(t, m, fresh) }},
		{"Restrict", func(t *testing.T, m *Model) { sameEvals(t, m.Restrict(keep), fresh.Restrict(keep)) }},
		{"Minimize", func(t *testing.T, m *Model) {
			q1, b1 := m.Minimize()
			q2, b2 := fresh.Minimize()
			if !sameQuotient(q1, b1, q2, b2) {
				t.Fatalf("Minimize differs from the model built without the edge")
			}
		}},
		{"SameClass", func(t *testing.T, m *Model) {
			for a := 0; a < 3; a++ {
				for w := 0; w < n; w++ {
					for v := 0; v < n; v++ {
						if m.SameClass(a, w, v) != fresh.SameClass(a, w, v) {
							t.Fatalf("SameClass(%d, %d, %d) differs", a, w, v)
						}
					}
				}
			}
		}},
	}
	for _, e := range redundant {
		for _, rd := range readers {
			t.Run(fmt.Sprintf("%s/edge%d_%d_%d", rd.name, e[0], e[1], e[2]), func(t *testing.T) {
				m := build()
				if _, err := m.Eval(logic.C(nil, logic.P("p"))); err != nil {
					t.Fatal(err)
				}
				m.Indistinguishable(e[0], e[1], e[2])
				rd.read(t, m)
			})
		}
	}
}

// TestMinimizePreservesVerdicts checks that the bisimulation quotient
// satisfies exactly the same E/C/D (and K) formulas at corresponding
// worlds.
func TestMinimizePreservesVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(80)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		q, block := m.Minimize()
		for _, f := range propertyFormulas(numAgents) {
			on, err := m.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on model: %v", trial, f, err)
			}
			onQ, err := q.Eval(f)
			if err != nil {
				t.Fatalf("trial %d: eval %s on quotient: %v", trial, f, err)
			}
			for w := 0; w < n; w++ {
				if on.Contains(w) != onQ.Contains(block[w]) {
					t.Fatalf("trial %d: Minimize changed the verdict of %s at world %d (block %d)",
						trial, f, w, block[w])
				}
			}
		}
	}
}

// TestRefineAgentAgreesWithEdgeRebuild guards the id-renumbering path of
// RefineAgent against a pairwise-edge reference.
func TestRefineAgentAgreesWithEdgeRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(60)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		a := rng.Intn(numAgents)
		phi, err := m.Eval(logic.Disj(logic.P("p"), logic.P("q")))
		if err != nil {
			t.Fatal(err)
		}
		got := m.RefineAgent(a, phi)

		// Reference: rebuild with pairwise edges, splitting a's classes.
		ref := NewModel(n, numAgents)
		for _, prop := range m.Facts() {
			set := m.FactSet(prop)
			for w := 0; w < n; w++ {
				if set.Contains(w) {
					ref.SetTrue(w, prop)
				}
			}
		}
		for b := 0; b < numAgents; b++ {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !m.SameClass(b, i, j) {
						continue
					}
					if b == a && phi.Contains(i) != phi.Contains(j) {
						continue
					}
					ref.Indistinguishable(b, i, j)
				}
			}
		}
		for _, f := range propertyFormulas(numAgents) {
			g, err := got.Eval(f)
			if err != nil {
				t.Fatal(err)
			}
			w, err := ref.Eval(f)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(w) {
				t.Fatalf("trial %d: RefineAgent Eval(%s) = %s, want %s", trial, f, g, w)
			}
		}
	}
}

// TestKnowIDsMatchesTable pins the table-free K kernel to the table
// kernel: for random partitions (tiny universes, universes with the
// transposes, classes spanning few words or many) and sets φ and dst of
// every density, andKnowIDs over the class ids must leave dst exactly as
// the partition table's andKnowInto does.
func TestKnowIDsMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ks kernelScratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(1500)
		classes := 1 + rng.Intn(n)
		ids := make([]int32, n)
		for w := range ids {
			if w < classes {
				ids[w] = int32(w)
			} else if rng.Intn(2) == 0 {
				ids[w] = int32(rng.Intn(classes)) // far-flung classes
			} else {
				ids[w] = ids[w-1-rng.Intn(min(w, 16))] // near neighbours
			}
		}
		random := func(density int) *bitset.Set {
			s := bitset.New(n)
			for w := 0; w < n; w++ {
				if rng.Intn(100) < density || (density == 50 && w>>6&1 == 1) {
					s.Add(w)
				}
			}
			return s
		}
		phi, dst := random([]int{0, 1, 50, 99, 100}[rng.Intn(5)]), random([]int{50, 100}[rng.Intn(2)])
		want := dst.Clone()
		newPartition(ids, classes).andKnowInto(want, phi, &ks)
		andKnowIDs(dst, phi, ids, classes, &ks)
		if !dst.Equal(want) {
			t.Fatalf("trial %d (%d worlds, %d classes): andKnowIDs = %s, table kernel %s", trial, n, classes, dst, want)
		}
	}
}

// TestKnowIDsThenTable pins when an agent's table is built: the first
// knowIDsUses K passes over installed class ids run without one, the next
// builds it, and every pass returns the table kernel's set.
func TestKnowIDsThenTable(t *testing.T) {
	m := buildWideModel(700, 2, 9)
	tb := m.tables()
	ref := newPartition(m.rels[1].ids, m.rels[1].n)
	var ks kernelScratch
	phi := m.FactSet("p").Clone()
	for i := 0; i <= knowIDsUses; i++ {
		phi.Remove(i) // a different φ each pass
		got, want := bitset.New(700), bitset.New(700)
		m.knowAgentInto(tb, 1, got, phi, &ks)
		ref.knowInto(want, phi, &ks)
		if !got.Equal(want) {
			t.Fatalf("pass %d: K_1 φ = %s, want %s", i, got, want)
		}
		if built := tb.parts[1].p.Load() != nil; built != (i == knowIDsUses) {
			t.Fatalf("after pass %d of %d on the ids: table built = %v", i+1, knowIDsUses, built)
		}
	}
	if tb.parts[0].p.Load() != nil {
		t.Fatal("agent 0's table was built without a K_0 pass")
	}
}
