package kripke

// Property tests for the incremental announcement-chain path: seeded
// quotient re-refinement (RestrictWithQuotient + minimizeSeeded) must be
// indistinguishable — block map for block map, verdict for verdict — from
// the from-scratch Minimize it replaces.

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// randKeep returns a random non-empty subset of [0, n).
func randKeep(rng *rand.Rand, n int) *bitset.Set {
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

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRestrictWithQuotientMinimizeExact pins the seeded-quotient contract:
// along a random announcement chain, Minimize on a RestrictWithQuotient
// submodel (which re-refines from the renamed pre-announcement blocks)
// must return exactly the same block map and quotient size as Minimize on
// the identical submodel restricted from scratch, and QuotientForEval on
// the seeded model must report the same verdicts.
func TestRestrictWithQuotientMinimizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(100)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		formulas := propertyFormulas(numAgents)
		_, blocks := m.Minimize()

		inc, scratch := m, m
		for step := 0; step < 3 && inc.NumWorlds() > 2; step++ {
			keep := randKeep(rng, inc.NumWorlds())
			inc = inc.RestrictWithQuotient(keep, blocks)
			scratch = scratch.Restrict(keep)

			if inc.quotSeed == nil {
				t.Fatalf("trial %d step %d: RestrictWithQuotient installed no quotient seed", trial, step)
			}
			qi, bi := inc.Minimize()
			qs, bs := scratch.Minimize()
			if qi.NumWorlds() != qs.NumWorlds() {
				t.Fatalf("trial %d step %d: seeded quotient has %d worlds, from-scratch %d",
					trial, step, qi.NumWorlds(), qs.NumWorlds())
			}
			if !equalInts(bi, bs) {
				t.Fatalf("trial %d step %d: seeded block map diverged:\n  seeded  %v\n  scratch %v",
					trial, step, bi, bs)
			}
			view := inc.QuotientForEval(1)
			for _, f := range formulas {
				got, err := view.Eval(f)
				if err != nil {
					t.Fatalf("trial %d step %d: eval %s on seeded view: %v", trial, step, f, err)
				}
				want, err := scratch.Eval(f)
				if err != nil {
					t.Fatalf("trial %d step %d: eval %s on scratch model: %v", trial, step, f, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d step %d: Eval(%s) seeded view = %s, want %s",
						trial, step, f, got, want)
				}
			}
			blocks = bi
		}
	}
}

// TestMinimizeSeededMergesAcrossSeedBlocks is the deterministic witness
// for the compose pass of minimizeSeeded: restriction does not only split
// blocks — removing the world that distinguished two others merges them —
// and the seeded path must find the merge even though the seed keeps the
// worlds apart. Worlds: a, b, c with p only at c and agent 0 confusing
// {a, c}; a and b are distinguishable (a considers p possible), but after
// announcing ¬p they are bisimilar while the seed still separates them.
func TestMinimizeSeededMergesAcrossSeedBlocks(t *testing.T) {
	m := NewModel(3, 1)
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 2)
	_, blocks := m.Minimize()
	if blocks[0] == blocks[1] {
		t.Fatalf("premise broken: worlds 0 and 1 should be distinguishable before the announcement")
	}
	notP, err := m.Eval(logic.Neg(logic.P("p")))
	if err != nil {
		t.Fatal(err)
	}
	sub := m.RestrictWithQuotient(notP, blocks)
	q, b := sub.Minimize()
	if q.NumWorlds() != 1 || b[0] != 0 || b[1] != 0 {
		t.Fatalf("seeded Minimize missed the announcement-induced merge: %d worlds, block map %v",
			q.NumWorlds(), b)
	}
	qs, bs := sub.Restrict(bitset.NewFull(2)).Minimize()
	if qs.NumWorlds() != q.NumWorlds() || !equalInts(b, bs) {
		t.Fatalf("seeded and from-scratch Minimize disagree: %v vs %v", b, bs)
	}
}

// TestMinimizeSeededArbitrarySeed checks the robustness half of the seed
// contract: any partition of the worlds — not just a renamed block map —
// with every seed block marked disturbed must still produce exactly the
// from-scratch quotient, because the seeded path splits by facts, refines
// to stability and composes with a quotient-level minimization.
func TestMinimizeSeededArbitrarySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(60)
		numAgents := 1 + rng.Intn(3)
		m := randModel(rng, n, numAgents)
		qs, bs := m.Minimize()

		nSeed := 1 + rng.Intn(n)
		seed := make([]int32, n)
		for w := range seed {
			seed[w] = int32(rng.Intn(nSeed))
		}
		dirty := make([]bool, nSeed)
		for b := range dirty {
			dirty[b] = true
		}
		qi, bi := m.minimizeSeeded(seed, nSeed, dirty)
		if qi.NumWorlds() != qs.NumWorlds() || !equalInts(bi, bs) {
			t.Fatalf("trial %d: arbitrary seed changed the quotient: %d worlds %v, want %d worlds %v",
				trial, qi.NumWorlds(), bi, qs.NumWorlds(), bs)
		}
	}
}

// TestMutationDropsIncrementalSeeds pins the invalidation contract: adding
// an edge to a restricted model describes new relations, so the quotient
// seed renamed from the pre-mutation model must be discarded with the other
// derived state.
func TestMutationDropsIncrementalSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randModel(rng, 40, 3)
	_, blocks := m.Minimize()
	keep := randKeep(rng, 40)
	sub := m.RestrictWithQuotient(keep, blocks)
	if sub.quotSeed == nil {
		t.Fatalf("restriction carried no quotient seed to invalidate")
	}
	sub.Indistinguishable(0, 0, sub.NumWorlds()-1)
	if sub.quotSeed != nil {
		t.Fatalf("mutation left a stale quotient seed behind")
	}
}

// TestMutationAfterEvalRereadsRelations pins re-resolution: an edge added to
// a restricted model after an evaluation must reach every later reader of
// the relations, which then answer as the same restriction mutated before
// any read.
func TestMutationAfterEvalRereadsRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randModel(rng, 40, 3)
	_, blocks := m.Minimize()
	keep := randKeep(rng, 40)
	sub := m.RestrictWithQuotient(keep, blocks)
	if _, err := sub.Eval(logic.C(nil, logic.P("p"))); err != nil {
		t.Fatal(err)
	}
	last := sub.NumWorlds() - 1
	sub.Indistinguishable(0, 0, last)
	if !sub.SameClass(0, 0, last) {
		t.Fatalf("edge (0, %d) added after an evaluation is not in agent 0's relation", last)
	}
	ref := m.Restrict(keep)
	ref.Indistinguishable(0, 0, last)
	for _, f := range propertyFormulas(3) {
		got, err1 := sub.Eval(f)
		want, err2 := ref.Eval(f)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval %s: %v, %v", f, err1, err2)
		}
		if !got.Equal(want) {
			t.Fatalf("%s after the edge = %s, want %s", f, got, want)
		}
	}
	q1, b1 := sub.Minimize()
	q2, b2 := ref.Minimize()
	if !sameQuotient(q1, b1, q2, b2) {
		t.Fatalf("Minimize after the edge differs from the restriction mutated before any read")
	}
}
