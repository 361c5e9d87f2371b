package kripke

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// refMinimize is the coarsest bisimulation of m computed from the
// definition, sharing no code with the refiner: blocks start as string
// fact signatures, and each round keys every world by its block plus, per
// agent, the sorted set of blocks in its view class (read through
// SameClass), until a round leaves the block count unchanged. Blocks are
// numbered by first occurrence, as the Minimize contract requires.
func refMinimize(m *Model) []int {
	W := m.NumWorlds()
	keys := make([]string, W)
	facts := m.Facts()
	cols := make([]*bitset.Set, len(facts))
	for i, p := range facts {
		cols[i] = m.FactSet(p)
	}
	for w := range keys {
		var sb strings.Builder
		for i, p := range facts {
			if cols[i].Contains(w) {
				sb.WriteString(p + "=1;")
			} else {
				sb.WriteString(p + "=0;")
			}
		}
		keys[w] = sb.String()
	}
	block, n := numberByFirstOccurrence(keys)
	for {
		for w := range keys {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d", block[w])
			for a := 0; a < m.NumAgents(); a++ {
				var set []int
				for v := 0; v < W; v++ {
					if m.SameClass(a, w, v) {
						set = append(set, block[v])
					}
				}
				slices.Sort(set)
				fmt.Fprintf(&sb, "|%v", slices.Compact(set))
			}
			keys[w] = sb.String()
		}
		next, nn := numberByFirstOccurrence(keys)
		block = next
		if nn == n {
			return block
		}
		n = nn
	}
}

func numberByFirstOccurrence(keys []string) ([]int, int) {
	ids := map[string]int{}
	out := make([]int, len(keys))
	for w, k := range keys {
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		out[w] = id
	}
	return out, len(ids)
}

// checkMinimizeAgainstReference requires Minimize on m to match
// refMinimize: the same block map, representative facts, the quotient
// relation "some members of the two blocks share a view class", and names
// "b<block><<representative's name>>".
func checkMinimizeAgainstReference(t *testing.T, what string, m *Model) []int {
	t.Helper()
	q, blocks := m.Minimize()
	want := refMinimize(m)
	if !slices.Equal(blocks, want) {
		t.Fatalf("%s: block map\n  got  %v\n  want %v", what, blocks, want)
	}
	nB := 0
	if len(want) > 0 {
		nB = slices.Max(want) + 1
	}
	if q.NumWorlds() != nB {
		t.Fatalf("%s: quotient has %d worlds, want %d", what, q.NumWorlds(), nB)
	}
	members := make([][]int, nB)
	for w, b := range want {
		members[b] = append(members[b], w)
	}
	for b, ws := range members {
		rep := ws[0]
		if name, wantName := q.Name(b), fmt.Sprintf("b%d<%s>", b, m.Name(rep)); name != wantName {
			t.Fatalf("%s: block %d named %q, want %q", what, b, name, wantName)
		}
		for _, p := range m.Facts() {
			if q.FactSet(p).Contains(b) != m.FactSet(p).Contains(rep) {
				t.Fatalf("%s: block %d fact %s differs from its representative w%d", what, b, p, rep)
			}
		}
	}
	for a := 0; a < m.NumAgents(); a++ {
		for b1 := 0; b1 < nB; b1++ {
			for b2 := 0; b2 < nB; b2++ {
				linked := false
				for _, w1 := range members[b1] {
					for _, w2 := range members[b2] {
						linked = linked || m.SameClass(a, w1, w2)
					}
				}
				if q.SameClass(a, b1, b2) != linked {
					t.Fatalf("%s: agent %d relates blocks %d and %d = %v, want %v",
						what, a, b1, b2, q.SameClass(a, b1, b2), linked)
				}
			}
		}
	}
	return blocks
}

// replicatedModel is c shuffled copies of a random k-world model (names on
// only some worlds), so most worlds have bisimilar twins and the quotient
// is much smaller than the model.
func replicatedModel(rng *rand.Rand, k, c, numAgents int) *Model {
	base := randomModel(rng, k, numAgents)
	perm := rng.Perm(k * c)
	m := NewModel(k*c, numAgents)
	at := func(copyIdx, w int) int { return perm[copyIdx*k+w] }
	for i := 0; i < c; i++ {
		for w := 0; w < k; w++ {
			for _, p := range base.Facts() {
				if base.FactSet(p).Contains(w) {
					m.SetTrue(at(i, w), p)
				}
			}
			if rng.Intn(2) == 0 {
				m.SetName(at(i, w), fmt.Sprintf("c%d.%d", i, w))
			}
			for a := 0; a < numAgents; a++ {
				for v := 0; v < w; v++ {
					if base.SameClass(a, w, v) {
						m.Indistinguishable(a, at(i, w), at(i, v))
					}
				}
			}
		}
	}
	return m
}

// TestMinimizeMatchesReference checks Minimize, from scratch and seeded,
// against the from-definition refinement: random models (named and
// unnamed), heavily redundant replicated models, and the quotients seeded
// by RestrictWithQuotient along random announcement chains and the muddy
// children's father announcement.
func TestMinimizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2500))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(70)
		numAgents := 1 + rng.Intn(3)
		checkMinimizeAgainstReference(t, fmt.Sprintf("randModel trial %d", trial), randModel(rng, n, numAgents))
		checkMinimizeAgainstReference(t, fmt.Sprintf("randomModel trial %d", trial), randomModel(rng, n, numAgents))
		rm := replicatedModel(rng, 1+rng.Intn(12), 2+rng.Intn(4), numAgents)
		checkMinimizeAgainstReference(t, fmt.Sprintf("replicatedModel trial %d", trial), rm)
	}
	for trial := 0; trial < 15; trial++ {
		var m *Model
		if trial%2 == 0 {
			m = randModel(rng, 10+rng.Intn(60), 1+rng.Intn(3))
		} else {
			m = replicatedModel(rng, 2+rng.Intn(10), 2+rng.Intn(4), 1+rng.Intn(3))
		}
		blocks := checkMinimizeAgainstReference(t, fmt.Sprintf("chain trial %d", trial), m)
		for step := 0; step < 3 && m.NumWorlds() > 1; step++ {
			m = m.RestrictWithQuotient(randKeep(rng, m.NumWorlds()), blocks)
			blocks = checkMinimizeAgainstReference(t, fmt.Sprintf("chain trial %d step %d", trial, step), m)
		}
	}
	for n := 2; n <= 5; n++ {
		m := muddyModel(n)
		_, blocks := m.Minimize()
		someMuddy := m.FactSet("muddy0").Clone()
		for i := 1; i < n; i++ {
			someMuddy.Or(m.FactSet(fmt.Sprintf("muddy%d", i)))
		}
		m = m.RestrictWithQuotient(someMuddy, blocks)
		blocks = checkMinimizeAgainstReference(t, fmt.Sprintf("muddy:%d after the father", n), m)
		// One "nobody knows" round: keep the worlds where no child knows
		// whether it is muddy.
		var nobody []string
		for i := 0; i < n; i++ {
			nobody = append(nobody, fmt.Sprintf("~K%d muddy%d & ~K%d ~muddy%d", i, i, i, i))
		}
		f, err := logic.Parse(strings.Join(nobody, " & "))
		if err != nil {
			t.Fatal(err)
		}
		keep, err := m.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		if !keep.IsEmpty() {
			m = m.RestrictWithQuotient(keep, blocks)
			checkMinimizeAgainstReference(t, fmt.Sprintf("muddy:%d after one nobody-knows round", n), m)
		}
	}
}

// columnar returns a copy of m with its relations installed as class ids,
// as every Builder-built or restricted model has them; a model built edge
// by edge resolves its union-find classes on every refinement instead.
func columnar(m *Model) *Model {
	return m.Restrict(bitset.NewFull(m.NumWorlds()))
}

// unpooled runs f with refineFree emptied, so every refiner f takes is
// freshly allocated, and then restores the list to what it held.
func unpooled(f func()) {
	var held []*refiner
	for r := refineFree.get(); r != nil; r = refineFree.get() {
		held = append(held, r)
	}
	f()
	for refineFree.get() != nil {
	}
	for _, r := range held {
		refineFree.put(r)
	}
}

// sameQuotient reports whether two Minimize results agree on the block
// map, the names, the fact columns and every agent's relation.
func sameQuotient(q1 *Model, b1 []int, q2 *Model, b2 []int) bool {
	if !slices.Equal(b1, b2) || q1.NumWorlds() != q2.NumWorlds() || !slices.Equal(q1.Facts(), q2.Facts()) {
		return false
	}
	for w := 0; w < q1.NumWorlds(); w++ {
		if q1.Name(w) != q2.Name(w) {
			return false
		}
	}
	for _, p := range q1.Facts() {
		if !q1.FactSet(p).Equal(q2.FactSet(p)) {
			return false
		}
	}
	for a := 0; a < q1.NumAgents(); a++ {
		for w := 0; w < q1.NumWorlds(); w++ {
			for v := 0; v < w; v++ {
				if q1.SameClass(a, w, v) != q2.SameClass(a, w, v) {
					return false
				}
			}
		}
	}
	return true
}

// TestMinimizeScratchReuse checks that a pooled refiner carries nothing
// from one run into the next. Minimize and QuotientForEval run back to back
// on random, replicated and RestrictWithQuotient-seeded models (disturbed
// and undisturbed) of alternating size, so each run inherits the scratch of a larger or a
// smaller model; every result must equal refMinimize and a refinement on
// fresh scratch.
func TestMinimizeScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2900))
	var ms []*Model
	for trial := 0; trial < 12; trial++ {
		numAgents := 1 + rng.Intn(3)
		big := randomModel(rng, 80+rng.Intn(120), numAgents)
		_, blocks := big.Minimize()
		ms = append(ms,
			big,
			replicatedModel(rng, 2+rng.Intn(6), 2+rng.Intn(3), numAgents),
			big.RestrictWithQuotient(randKeep(rng, big.NumWorlds()), blocks),
			randModel(rng, 1+rng.Intn(10), numAgents),
			// Keeping every world disturbs no block: the seeded refinement
			// is final and the gate decides on its count.
			big.RestrictWithQuotient(bitset.NewFull(big.NumWorlds()), blocks))
	}
	for i, m := range ms {
		want := refMinimize(m)
		var fq *Model
		var fb []int
		unpooled(func() { fq, fb = m.Minimize() })
		if !slices.Equal(fb, want) {
			t.Fatalf("model %d: fresh refiner's block map\n  got  %v\n  want %v", i, fb, want)
		}
		q, b := m.Minimize()
		if !sameQuotient(q, b, fq, fb) {
			t.Fatalf("model %d: pooled Minimize differs from a fresh refiner's\n  got  %v\n  want %v", i, b, fb)
		}
		v := m.QuotientForEval(1)
		nq := slices.Max(want) + 1
		if v.Quotiented() != worthQuotienting(nq, m.NumWorlds()) {
			t.Fatalf("model %d: %d-world quotient of %d worlds: Quotiented() = %v", i, nq, m.NumWorlds(), v.Quotiented())
		}
		if v.Quotiented() && (v.QuotientWorlds() != nq || !slices.Equal(v.Blocks(), want)) {
			t.Fatalf("model %d: view blocks\n  got  %v\n  want %v", i, v.Blocks(), want)
		}
	}
}

// TestRefinerReuseBound pins that an idle refiner sized for a much larger
// model is not reused: its maps would make every clear on the small model
// cost as much as on the large one.
func TestRefinerReuseBound(t *testing.T) {
	for refineFree.get() != nil {
	}
	big, small := columnar(muddyModel(14)), columnar(muddyModel(8))
	big.QuotientForEval(1)
	small.QuotientForEval(1)
	r := refineFree.get()
	if r == nil {
		t.Fatal("no idle refiner after QuotientForEval")
	}
	if limit := 4*small.NumWorlds() + refinerReuseWorlds; cap(r.block) > limit {
		t.Fatalf("small model reused a refiner sized for %d worlds (limit %d)", cap(r.block), limit)
	}
}
