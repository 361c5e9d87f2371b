package kripke

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// batchFormulas is a battery with heavy subterm sharing (so the batch and
// view memos are exercised), duplicates (so memo hits on a whole formula
// are exercised), and every operator family (so every derived-table build
// is exercised).
func batchFormulas(numAgents int) []logic.Formula {
	fs := propertyFormulas(numAgents)
	// Duplicates and shared subterms across batch entries.
	fs = append(fs, fs[0], fs[len(fs)/2])
	p := logic.P("p")
	common := logic.C(nil, p)
	fs = append(fs,
		logic.Conj(common, logic.K(0, p)),
		logic.Disj(common, logic.Neg(common)),
		logic.EK(nil, 4, p),
		logic.EK(nil, 4, p),
	)
	return fs
}

// TestEvalBatchMatchesSerial pins the batch contract: EvalBatch returns,
// set for set, exactly what a loop of Eval calls returns, on random models
// with cold caches (the batch runs first) and warm ones.
func TestEvalBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 16 + rng.Intn(200)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		fs := batchFormulas(numAgents)

		cold, err := m.EvalBatch(fs)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warm, err := m.EvalBatch(fs)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		for i, f := range fs {
			want, err := m.Eval(f)
			if err != nil {
				t.Fatal(err)
			}
			if !cold[i].Equal(want) || !warm[i].Equal(want) {
				t.Fatalf("trial %d: EvalBatch[%d] = %s cold, %s warm, want %s (formula %s)",
					trial, i, cold[i], warm[i], want, f)
			}
		}
	}
}

// TestEvalBatchResultsAreOwned checks that mutating one batch result does
// not corrupt another (results sharing a memoized denotation must be
// independent copies by the time the caller sees them).
func TestEvalBatchResultsAreOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randModel(rng, 120, 3)
	f := logic.C(nil, logic.P("p"))
	fs := []logic.Formula{f, f, f}
	got, err := m.EvalBatch(fs)
	if err != nil {
		t.Fatal(err)
	}
	before := got[1].String()
	got[0].Not()
	got[2].Clear()
	if got[1].String() != before {
		t.Fatalf("batch results alias one another: mutating result 0/2 changed result 1")
	}
}

// TestEvalBatchColdRace drives concurrent callers on fresh models with no
// warm-up (meaningful mainly under -race): six goroutines share one cold
// model, a third of them running serial EvalBatch calls, a third
// per-formula Eval, and a third first reading the relations another way
// (Restrict, Minimize, SameClass or QuotientForEval) and then evaluating,
// each starting at a different formula, so the first-read resolution of
// the relations, the class-id K passes, the lazy per-agent table builds
// and the build-once joint-view and reachability slots all race across
// their callers. It runs on a random wide model, on a muddy children cube,
// whose every table is a coset partition, so the first-use builds also
// race through coset detection, and on a model built edge by edge with one
// agent left discrete, whose pending edges and unset relation the first
// reader resolves.
func TestEvalBatchColdRace(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)

	formulas := []logic.Formula{
		logic.E(nil, logic.P("p")),
		logic.S(nil, logic.Neg(logic.P("p"))),
		logic.D(logic.NewGroup(0, 1, 2), logic.P("p")),
		logic.D(logic.NewGroup(1, 3, 5), logic.P("q")),
		logic.C(nil, logic.Disj(logic.P("p"), logic.P("q"))),
		logic.C(logic.NewGroup(0, 2, 4), logic.P("q")),
		logic.EK(nil, 3, logic.P("q")),
		logic.GFP("Z", logic.E(nil, logic.Conj(logic.P("q"), logic.X("Z")))),
		logic.Conj(logic.C(nil, logic.P("p")), logic.K(1, logic.P("q"))),
		logic.K(0, logic.Disj(logic.P("p"), logic.Neg(logic.P("q")))),
	}

	for _, build := range []func() *Model{
		func() *Model { return buildWideModel(768, 6, 3) },
		func() *Model { return muddyCube(10, 3) },
		func() *Model { return edgeModel(500, 6, 4) },
	} {
		coldRace(t, build, formulas)
	}
}

// edgeModel builds a random model edge by edge with Indistinguishable,
// leaving its last agent discrete.
func edgeModel(n, numAgents int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(n, numAgents)
	for w := 0; w < n; w++ {
		if rng.Intn(2) == 0 {
			m.SetTrue(w, "p")
		}
		if rng.Intn(7) != 0 {
			m.SetTrue(w, "q")
		}
	}
	for a := 0; a < numAgents-1; a++ {
		for e := 0; e < n; e++ {
			m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
		}
	}
	return m
}

// sameRow reports whether agent a confuses world 0 with the same worlds in
// x as in y.
func sameRow(x, y *Model, a int) bool {
	for w := 0; w < x.NumWorlds(); w++ {
		if x.SameClass(a, 0, w) != y.SameClass(a, 0, w) {
			return false
		}
	}
	return true
}

// coldRace checks concurrent callers on fresh models from build against
// the verdicts of one serial model.
func coldRace(t *testing.T, build func() *Model, formulas []logic.Formula) {
	ref := build()
	want := make([]string, len(formulas))
	for i, f := range formulas {
		s, err := ref.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.String()
	}
	last := ref.NumAgents() - 1
	refMin, _ := ref.Minimize()
	refQuot := ref.QuotientForEval(1).QuotientWorlds()
	// readFirst reads a fresh model's relations other than by evaluating,
	// the i-th of four ways, and reports whether it read them right.
	readFirst := func(m *Model, i int) bool {
		switch i % 4 {
		case 0:
			return sameRow(m.Restrict(bitset.NewFull(m.NumWorlds())), ref, last)
		case 1:
			q, _ := m.Minimize()
			return q.NumWorlds() == refMin.NumWorlds()
		case 2:
			return sameRow(m, ref, last)
		default:
			return m.QuotientForEval(1).QuotientWorlds() == refQuot
		}
	}

	for rep := 0; rep < 4; rep++ {
		m := build() // fresh: every table cold
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Rotate the batch so each caller meets a different table
				// first.
				order := make([]int, len(formulas))
				fs := make([]logic.Formula, len(formulas))
				for j := range order {
					order[j] = (g + j) % len(formulas)
					fs[j] = formulas[order[j]]
				}
				var got []*bitset.Set
				if g%3 == 2 && !readFirst(m, g/3+rep) {
					t.Errorf("caller %d: reading the cold relations (way %d) disagrees with the serial model", g, (g/3+rep)%4)
					return
				}
				if g%3 == 0 {
					var err error
					if got, err = m.EvalBatch(fs); err != nil {
						t.Error(err)
						return
					}
				} else {
					for _, f := range fs {
						s, err := m.Eval(f)
						if err != nil {
							t.Error(err)
							return
						}
						got = append(got, s)
					}
				}
				for j, i := range order {
					if got[j].String() != want[i] {
						t.Errorf("caller %d: cold %s = %s, want %s", g, formulas[i], got[j], want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestEvalBatchErrors pins the error contract: the batch reports the error
// of the first failing formula, and temporal operators on a plain model
// fail with ErrTemporal.
func TestEvalBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randModel(rng, 64, 2)
	fs := []logic.Formula{
		logic.K(0, logic.P("p")),
		logic.K(7, logic.P("p")), // agent out of range: the first error
		logic.Ev(logic.P("p")),
	}
	_, err := m.EvalBatch(fs)
	if err == nil {
		t.Fatal("EvalBatch with an out-of-range agent returned no error")
	}
	if errors.Is(err, ErrTemporal) {
		t.Fatalf("EvalBatch reported a later index's error (%v), want the smallest index's", err)
	}
	_, err = m.EvalBatch(fs[2:])
	if !errors.Is(err, ErrTemporal) {
		t.Fatalf("EvalBatch temporal error = %v, want ErrTemporal", err)
	}
}

// TestQuotientedEvalBatch checks the quotient view's batch front end:
// verdicts expanded through the block map must equal per-formula Eval.
func TestQuotientedEvalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randModel(rng, 150, 3)
	q := m.QuotientForEval(1)
	fs := batchFormulas(3)
	got, err := q.EvalBatch(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		want, err := q.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("Quotiented.EvalBatch[%d] = %s, want %s (formula %s)", i, got[i], want, f)
		}
	}
}

// TestBatchWorkersIgnored pins the BatchWorkers shim as a no-op: on a cold
// muddy:8 view, a tower batch with BatchWorkers(4) returns the same sets
// as the batch with no option, and the same view-memo hit and miss deltas,
// run after run. A shim that still fanned the batch out would split its
// E^k prefixes across evaluators, and the deltas would follow scheduling.
func TestBatchWorkersIgnored(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	var fs []logic.Formula
	for _, src := range []string{"muddy0", "muddy0 | muddy1", "~muddy2"} {
		phi := logic.MustParse(src)
		for k := 1; k <= 8; k++ {
			fs = append(fs, logic.EK(nil, k, phi))
		}
		fs = append(fs, logic.C(nil, phi))
	}
	m := muddyModel(8)
	run := func(opts ...BatchOption) ([]*bitset.Set, MemoStats) {
		t.Helper()
		q := m.QuotientForEval(0)
		sets, err := q.EvalBatchCtx(context.Background(), fs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sets, q.MemoStats()
	}
	want, wantStats := run()
	for i := 0; i < 5; i++ {
		got, stats := run(BatchWorkers(4))
		for j := range fs {
			if !got[j].Equal(want[j]) {
				t.Fatalf("run %d: %s = %s with BatchWorkers(4), %s without", i, fs[j], got[j], want[j])
			}
		}
		if stats != wantStats {
			t.Fatalf("run %d: view memo %+v with BatchWorkers(4), %+v without", i, stats, wantStats)
		}
	}
}
