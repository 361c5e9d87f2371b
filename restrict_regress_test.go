package repro_test

// Regression: Model.Restrict against a reference that shares none of its
// code. The reference rebuilds the submodel with kripke.Builder — fact
// columns copied bit by bit from FactSet, each agent's partition installed
// through PartitionFromKeys over the source model's one-agent GReachIDs —
// so a slip in Restrict's column gather or class renaming cannot hide
// behind the same slip in its reference.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// randRestrictModel builds a random model through the edge-based API, so
// its relations are union-finds and Restrict renames freshly labelled
// components.
func randRestrictModel(rng *rand.Rand, n, numAgents int) *kripke.Model {
	m := kripke.NewModel(n, numAgents)
	for w := 0; w < n; w++ {
		m.SetName(w, fmt.Sprintf("v%d", w))
		if rng.Intn(2) == 0 {
			m.SetTrue(w, "p")
		}
		if rng.Intn(3) == 0 {
			m.SetTrue(w, "q")
		}
	}
	for a := 0; a < numAgents; a++ {
		for e := rng.Intn(2 * n); e > 0; e-- {
			m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
		}
	}
	return m
}

// builderRestriction is the reference submodel of m over keep.
func builderRestriction(t *testing.T, m *kripke.Model, keep *bitset.Set) *kripke.Model {
	t.Helper()
	old := keep.Elements()
	b := kripke.NewBuilder(len(old), m.NumAgents())
	for i, w := range old {
		b.SetName(i, m.Name(w))
	}
	for _, prop := range m.Facts() {
		src := m.FactSet(prop)
		col := b.Column(prop)
		for i, w := range old {
			if src.Contains(w) {
				col.Add(i)
			}
		}
	}
	for a := 0; a < m.NumAgents(); a++ {
		// An agent's reachability components are its view classes.
		ids, err := m.GReachIDs(logic.NewGroup(logic.Agent(a)))
		if err != nil {
			t.Fatal(err)
		}
		b.PartitionFromKeys(a, func(i int) string {
			return strconv.Itoa(ids[old[i]])
		})
	}
	return b.Build()
}

// restrictVerdicts asks K_i of every agent and D_G, C_G of the full group
// and of a proper subgroup.
func restrictVerdicts(numAgents int) []logic.Formula {
	p, q := logic.P("p"), logic.P("q")
	g2 := logic.NewGroup(0, logic.Agent(numAgents-1))
	var fs []logic.Formula
	for a := 0; a < numAgents; a++ {
		fs = append(fs, logic.K(logic.Agent(a), p), logic.K(logic.Agent(a), logic.Neg(q)))
	}
	return append(fs,
		logic.D(nil, p),
		logic.D(g2, logic.Disj(p, q)),
		logic.C(nil, logic.Disj(p, q)),
		logic.C(g2, p),
		logic.K(0, logic.C(g2, logic.Disj(p, q))),
	)
}

// randSubset returns a random non-empty subset of [0, n).
func randSubset(rng *rand.Rand, n int) *bitset.Set {
	keep := bitset.New(n)
	for w := 0; w < n; w++ {
		if rng.Intn(3) != 0 {
			keep.Add(w)
		}
	}
	if keep.IsEmpty() {
		keep.Add(rng.Intn(n))
	}
	return keep
}

func evalAll(t *testing.T, m *kripke.Model, fs []logic.Formula) []*bitset.Set {
	t.Helper()
	out := make([]*bitset.Set, len(fs))
	for i, f := range fs {
		s, err := m.Eval(f)
		if err != nil {
			t.Fatalf("eval %s: %v", f, err)
		}
		out[i] = s
	}
	return out
}

// TestRestrictMatchesBuilderReference checks Restrict and
// RestrictWithQuotient, link by link along a two-link chain, against the
// Builder reference: same worlds, names and facts, and the same K_i, D_G
// and C_G verdicts. Every source model has its D and C caches warmed first,
// so a restriction that carried stale derived state would answer from it.
func TestRestrictMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(190)
		numAgents := 1 + rng.Intn(4)
		fs := restrictVerdicts(numAgents)
		m := randRestrictModel(rng, n, numAgents)
		for link := 1; link <= 2 && m.NumWorlds() > 1; link++ {
			evalAll(t, m, fs)
			keep := randSubset(rng, m.NumWorlds())
			ref := builderRestriction(t, m, keep)
			want := evalAll(t, ref, fs)
			_, blocks := m.Minimize()
			seeded := m.RestrictWithQuotient(keep, blocks)
			sub := m.Restrict(keep)
			for name, got := range map[string]*kripke.Model{"Restrict": sub, "RestrictWithQuotient": seeded} {
				if got.NumWorlds() != ref.NumWorlds() {
					t.Fatalf("trial %d link %d: %s has %d worlds, reference %d",
						trial, link, name, got.NumWorlds(), ref.NumWorlds())
				}
				for w := 0; w < ref.NumWorlds(); w++ {
					if got.Name(w) != ref.Name(w) {
						t.Fatalf("trial %d link %d: %s names world %d %q, reference %q",
							trial, link, name, w, got.Name(w), ref.Name(w))
					}
				}
				for _, prop := range ref.Facts() {
					if !got.FactSet(prop).Equal(ref.FactSet(prop)) {
						t.Fatalf("trial %d link %d: %s fact %s = %s, reference %s",
							trial, link, name, prop, got.FactSet(prop), ref.FactSet(prop))
					}
				}
				for i, s := range evalAll(t, got, fs) {
					if !s.Equal(want[i]) {
						t.Fatalf("trial %d link %d: %s Eval(%s) = %s, reference %s",
							trial, link, name, fs[i], s, want[i])
					}
				}
			}
			m = sub
		}
	}
}
