package kripke

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// muddyModel builds the muddy children structure on n children: one world
// per assignment (bit i set = child i muddy), facts muddy0..muddy(n-1), and
// child i unable to tell apart the worlds that differ only in bit i.
func muddyModel(n int) *Model {
	m := NewModel(1<<n, n)
	for w := 0; w < 1<<n; w++ {
		for i := 0; i < n; i++ {
			if w&(1<<i) != 0 {
				m.SetTrue(w, fmt.Sprintf("muddy%d", i))
				m.Indistinguishable(i, w, w&^(1<<i))
			}
		}
	}
	return m
}

// viewMemoFormulas is the differential battery: the shared-subterm batch
// plus random closed formulas over every static operator.
func viewMemoFormulas(rng *rand.Rand, numAgents int) []logic.Formula {
	fs := batchFormulas(numAgents)
	if numAgents >= 2 { // genStaticFormula draws groups over agents 0 and 1
		for i := 0; i < 12; i++ {
			fs = append(fs, genStaticFormula(rng, 1+rng.Intn(4), numAgents, nil))
		}
	}
	return fs
}

// genStaticFormula generates a random closed formula without temporal
// operators (which plain Kripke models cannot evaluate), constants and
// fixed points included.
func genStaticFormula(rng *rand.Rand, depth int, agents int, vars []string) logic.Formula {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return logic.P("p")
		case 1:
			return logic.P("q")
		case 2:
			return logic.Truth{Value: rng.Intn(2) == 0}
		default:
			if len(vars) > 0 {
				return logic.Var{Name: vars[rng.Intn(len(vars))]}
			}
			return logic.P("p")
		}
	}
	groups := []logic.Group{nil, logic.NewGroup(0), logic.NewGroup(0, 1)}
	g := groups[rng.Intn(len(groups))]
	sub := func() logic.Formula { return genStaticFormula(rng, depth-1, agents, vars) }
	subNoVars := func() logic.Formula { return genStaticFormula(rng, depth-1, agents, nil) }
	switch rng.Intn(11) {
	case 0:
		return logic.Neg(subNoVars())
	case 1:
		return logic.Conj(sub(), sub())
	case 2:
		return logic.Disj(sub(), sub())
	case 3:
		return logic.Imp(subNoVars(), sub())
	case 4:
		return logic.Equiv(subNoVars(), subNoVars())
	case 5:
		return logic.K(logic.Agent(rng.Intn(agents)), sub())
	case 6:
		return logic.E(g, sub())
	case 7:
		return logic.C(g, sub())
	case 8:
		return logic.D(g, sub())
	case 9:
		return logic.S(g, sub())
	default:
		name := string(rune('X' + rng.Intn(2)))
		inner := genStaticFormula(rng, depth-1, agents, append(append([]string{}, vars...), name))
		return logic.GFP(name, inner)
	}
}

// modelVerdicts is the reference: Model.Eval on every formula.
func modelVerdicts(t *testing.T, m *Model, fs []logic.Formula) []*bitset.Set {
	t.Helper()
	want := make([]*bitset.Set, len(fs))
	for i, f := range fs {
		s, err := m.Eval(f)
		if err != nil {
			t.Fatalf("Model.Eval(%s): %v", f, err)
		}
		want[i] = s
	}
	return want
}

func checkBatch(t *testing.T, what string, q *Quotiented, fs []logic.Formula, want []*bitset.Set) {
	t.Helper()
	got, err := q.EvalBatch(fs)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range fs {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: EvalBatch[%d] (%s) = %s, want %s", what, i, fs[i], got[i], want[i])
		}
	}
}

// memoBytesHeld recounts, from the stripes' contents, the bytes a memo
// holds, and checks each stripe's running total against it.
func memoBytesHeld(t *testing.T, sm *sharedMemo) int {
	t.Helper()
	total := 0
	for i := range sm.shards {
		sh := &sm.shards[i]
		held := 0
		for k, s := range sh.m {
			held += 8*len(s.Words()) + len(k)
		}
		if held != sh.bytes {
			t.Fatalf("stripe %d holds %d bytes but accounts %d", i, held, sh.bytes)
		}
		if held > sm.shardBudget {
			t.Fatalf("stripe %d holds %d bytes, over its %d-byte share", i, held, sm.shardBudget)
		}
		total += held
	}
	return total
}

// TestViewMemoMatchesModelEval is the differential test of the view memo:
// on random models and formulas, view EvalBatch (cold and warm),
// per-formula Eval, Holds and Valid, and batches on views whose stripes
// overflow and clear, all agree set for set with Model.Eval.
func TestViewMemoMatchesModelEval(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(200)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		fs := viewMemoFormulas(rng, numAgents)
		want := modelVerdicts(t, m, fs)

		for _, minWorlds := range []int{1, n + 1} { // quotient attempted, identity view
			what := fmt.Sprintf("trial %d minWorlds %d", trial, minWorlds)
			q := m.QuotientForEval(minWorlds)
			checkBatch(t, what+" cold", q, fs, want)
			checkBatch(t, what+" warm", q, fs, want)
			for i, f := range fs {
				got, err := q.Eval(f)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want[i]) {
					t.Fatalf("%s: Eval(%s) = %s, want %s", what, f, got, want[i])
				}
				w := rng.Intn(n)
				if holds, err := q.Holds(f, w); err != nil || holds != want[i].Contains(w) {
					t.Fatalf("%s: Holds(%s, %d) = %v, %v", what, f, w, holds, err)
				}
				if valid, err := q.Valid(f); err != nil || valid != want[i].IsFull() {
					t.Fatalf("%s: Valid(%s) = %v, %v", what, f, valid, err)
				}
			}
			memoBytesHeld(t, &q.memo)
		}

		// Tiny budgets: stripes clear on nearly every insert, and at 8
		// bytes no set fits at all, so nothing is ever published.
		for _, budget := range []int{8, 64, 256} {
			what := fmt.Sprintf("trial %d budget %d", trial, budget)
			q := m.QuotientForEval(1)
			q.memo.shardBudget = budget
			for pass := 0; pass < 3; pass++ {
				checkBatch(t, fmt.Sprintf("%s pass %d", what, pass), q, fs, want)
			}
			memoBytesHeld(t, &q.memo)
		}
	}
}

// TestViewMemoResultsAreOwned: results served from the view memo are the
// caller's own copies; mutating one changes neither the memo nor later
// answers.
func TestViewMemoResultsAreOwned(t *testing.T) {
	m := muddyModel(4)
	q := m.QuotientForEval(0)
	f := logic.C(nil, logic.Disj(logic.P("muddy0"), logic.P("muddy1")))
	want, err := m.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // a cold memo, then a warm one
		got, err := q.EvalBatch([]logic.Formula{f, f})
		if err != nil {
			t.Fatal(err)
		}
		got[0].Not()
		one, err := q.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		one.Clear()
		if !got[1].Equal(want) {
			t.Fatalf("pass %d: batch results alias one another", pass)
		}
		again, err := q.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(want) {
			t.Fatalf("pass %d: mutating a result corrupted the memo: %s, want %s", pass, again, want)
		}
	}
}

// TestViewMemoStatsPinned pins the view's lookup counts on a fixed muddy
// batch. The first batch misses once per distinct closed modal
// subformula; an identical second batch adds only hits — one per top-level
// modal lookup.
func TestViewMemoStatsPinned(t *testing.T) {
	mk := func(src string) logic.Formula { return logic.MustParse(src) }
	fs := []logic.Formula{
		mk("K0 muddy0"),                          // miss K0 muddy0
		mk("K1 K0 muddy0"),                       // miss K1 K0 muddy0, hit K0 muddy0
		mk("E^3 muddy1"),                         // miss E^3, E^2 and E muddy1
		mk("E^2 muddy1"),                         // hit
		mk("C (muddy0 | muddy1)"),                // miss
		mk("D{0,1} muddy2"),                      // miss
		mk("K0 muddy0 & ~K2 muddy2"),             // hit K0 muddy0, miss K2 muddy2
		mk("muddy3 | ~muddy2"),                   // no modal lookup
		mk("nu X . E (muddy1 & X)"),              // miss the ν; its body is open
		mk("K2 muddy2 -> nu X . E (muddy1 & X)"), // hit K2 muddy2, hit the ν
	}
	// tops is the second batch's lookups: one per formula, two for the
	// connectives over two modal operands, none for the propositional one.
	const misses, hits, tops = 9, 5, 11

	q := muddyModel(4).QuotientForEval(0)
	if _, err := q.EvalBatch(fs); err != nil {
		t.Fatal(err)
	}
	if got := q.MemoStats(); got != (MemoStats{Hits: hits, Misses: misses}) {
		t.Fatalf("first batch: %+v, want %d hits, %d misses", got, hits, misses)
	}
	if _, err := q.EvalBatch(fs); err != nil {
		t.Fatal(err)
	}
	if got := q.MemoStats(); got != (MemoStats{Hits: hits + tops, Misses: misses}) {
		t.Fatalf("second batch: %+v, want %d hits, %d misses", got, hits+tops, misses)
	}
	// Single evaluations share the memo too.
	if _, err := q.Eval(fs[2]); err != nil {
		t.Fatal(err)
	}
	if ok, err := q.Holds(fs[4], 0); err != nil || ok {
		t.Fatalf("Holds(C ...) at the clean world = %v, %v", ok, err)
	}
	if got := q.MemoStats(); got != (MemoStats{Hits: hits + tops + 2, Misses: misses}) {
		t.Fatalf("after Eval and Holds: %+v", got)
	}
	// A restricted link is a new view with a fresh memo.
	next := q.Restrict(bitset.NewFull(q.NumWorlds()), 0)
	if got := next.MemoStats(); got != (MemoStats{}) {
		t.Fatalf("restricted view starts at %+v, want zero", got)
	}
	if _, err := next.Eval(fs[0]); err != nil {
		t.Fatal(err)
	}
	if got := next.MemoStats(); got != (MemoStats{Misses: 1}) {
		t.Fatalf("restricted view after one eval: %+v, want one miss", got)
	}

	// Model.Eval and Model.EvalBatch keep their own memos: no view counts.
	m := muddyModel(4)
	q = m.QuotientForEval(0)
	if _, err := m.EvalBatch(fs); err != nil {
		t.Fatal(err)
	}
	if got := q.MemoStats(); got != (MemoStats{}) {
		t.Fatalf("Model.EvalBatch touched the view memo: %+v", got)
	}
}

// TestViewMemoBudget: a view whose batches publish far more than
// viewMemoBytes never holds more than the budget, and keeps answering
// correctly after its stripes have cleared.
func TestViewMemoBudget(t *testing.T) {
	// 16384 worlds: every set is 2 KiB, so the E^k prefixes of two atoms
	// publish well over a MiB.
	m := chainModel(1 << 14)
	atoms := []logic.Formula{logic.P("p"), logic.Neg(logic.P("p"))}
	var fs, prefixes []logic.Formula
	for _, atom := range atoms {
		fs = append(fs, logic.EK(nil, 400, atom))
		for _, k := range []int{1, 100, 250, 399} {
			prefixes = append(prefixes, logic.EK(nil, k, atom))
		}
	}
	q := m.QuotientForEval(m.NumWorlds() + 1)
	checkBatch(t, "towers", q, fs, modelVerdicts(t, m, fs))
	if held := memoBytesHeld(t, &q.memo); held > viewMemoBytes {
		t.Fatalf("memo holds %d bytes, over the %d budget", held, viewMemoBytes)
	}
	entries := 0
	for i := range q.memo.shards {
		entries += len(q.memo.shards[i].m)
	}
	if st := q.MemoStats(); int64(entries) >= st.Misses {
		t.Fatalf("memo holds all %d published entries (%+v): no stripe cleared", entries, st)
	}
	// Some prefixes were cleared and are recomputed, some are hits.
	checkBatch(t, "prefixes after clears", q, prefixes, modelVerdicts(t, m, prefixes))
	if held := memoBytesHeld(t, &q.memo); held > viewMemoBytes {
		t.Fatalf("memo holds %d bytes, over the %d budget", held, viewMemoBytes)
	}
}

// TestViewMemoRace runs four goroutines on one cold view, two of them
// serial EvalBatch calls and two per-formula Eval, so publishes,
// adoptions and stripe clears race across their evaluators (meaningful
// under -race); every verdict must still match Model.Eval.
func TestViewMemoRace(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		m := randModel(rng, 64+rng.Intn(200), 3)
		fs := viewMemoFormulas(rng, 3)
		want := modelVerdicts(t, m, fs)
		for _, budget := range []int{viewMemoBytes / memoShards, 128} {
			q := m.QuotientForEval(1)
			q.memo.shardBudget = budget
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for pass := 0; pass < 3; pass++ {
						var got []*bitset.Set
						var err error
						if g%2 == 0 {
							got, err = q.EvalBatch(fs)
						} else {
							// Backwards, to meet the formulas in another order.
							got = make([]*bitset.Set, len(fs))
							for i := len(fs) - 1; i >= 0 && err == nil; i-- {
								got[i], err = q.Eval(fs[i])
							}
						}
						if err != nil {
							errs[g] = err
							return
						}
						for i := range fs {
							if !got[i].Equal(want[i]) {
								errs[g] = fmt.Errorf("goroutine %d pass %d: %s = %s, want %s", g, pass, fs[i], got[i], want[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("trial %d budget %d: %v", trial, budget, err)
				}
			}
		}
	}
}

// towerBatch draws one knowledge-tower batch over the muddy atoms of n
// children: K_i, nested K, E^k with k <= 8, D and C over single atoms,
// their negations and two-atom disjunctions — the shape of the batches a
// warm serving session answers over and over.
func towerBatch(rng *rand.Rand, n int) []logic.Formula {
	atom := func() logic.Formula {
		a := logic.P(fmt.Sprintf("muddy%d", rng.Intn(n)))
		switch rng.Intn(4) {
		case 0:
			return logic.Neg(a)
		case 1:
			return logic.Disj(a, logic.P(fmt.Sprintf("muddy%d", rng.Intn(n))))
		}
		return a
	}
	agent := func() logic.Agent { return logic.Agent(rng.Intn(n)) }
	fs := make([]logic.Formula, 6+rng.Intn(13))
	for i := range fs {
		switch rng.Intn(5) {
		case 0:
			fs[i] = logic.K(agent(), atom())
		case 1:
			f := atom()
			for d := 2 + rng.Intn(3); d > 0; d-- {
				f = logic.K(agent(), f)
			}
			fs[i] = f
		case 2:
			fs[i] = logic.EK(nil, 1+rng.Intn(8), atom())
		case 3:
			if rng.Intn(2) == 0 {
				fs[i] = logic.D(nil, atom())
			} else {
				fs[i] = logic.D(logic.NewGroup(agent(), agent()), atom())
			}
		default:
			fs[i] = logic.C(nil, atom())
		}
	}
	return fs
}

// BenchmarkViewEvalRepeat cycles a fixed set of tower batches over
// muddy:12, once on a long-lived view (whose memo serves repeated
// subformulas across batches) and once through Model.EvalBatch (whose memo
// lives one batch). memo_hits/op is the view memo's hits per batch.
func BenchmarkViewEvalRepeat(b *testing.B) {
	m := muddyModel(12)
	rng := rand.New(rand.NewSource(1))
	batches := make([][]logic.Formula, 32)
	for i := range batches {
		batches[i] = towerBatch(rng, 12)
	}
	b.Run("view", func(b *testing.B) {
		q := m.QuotientForEval(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalBatch(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(q.MemoStats().Hits)/float64(b.N), "memo_hits/op")
	})
	b.Run("model", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.EvalBatch(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "memo_hits/op")
	})
}
