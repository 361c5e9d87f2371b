package kripke

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/logic"
)

// batchFormulas is a battery with heavy subterm sharing (so the shared
// memo is exercised), duplicates (so publish races are exercised), and
// every operator family (so every derived-table build is exercised).
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

// TestEvalBatchMatchesSerial pins the batch contract: EvalBatch with any
// worker count returns, set for set, exactly what a serial Eval loop
// returns, on random models with cold and warm caches.
func TestEvalBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 16 + rng.Intn(200)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		fs := batchFormulas(numAgents)

		want := make([]string, len(fs))
		for i, f := range fs {
			s, err := m.Eval(f)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = s.String()
		}

		for _, workers := range []int{1, 2, 8} {
			got, err := m.EvalBatch(fs, BatchWorkers(workers))
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for i := range fs {
				if got[i].String() != want[i] {
					t.Fatalf("trial %d workers %d: EvalBatch[%d] = %s, want %s (formula %s)",
						trial, workers, i, got[i], want[i], fs[i])
				}
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
	got, err := m.EvalBatch(fs, BatchWorkers(4))
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

// TestEvalBatchColdRace drives EvalBatch on fresh models with no
// warm-up, forcing the lazy per-agent table builds, the build-once
// joint-view and reachability slots, and the shared-memo publish races to
// all happen inside the worker pool (meaningful mainly under -race). Two concurrent EvalBatch calls share one model to cross
// the batches' evaluators over the same caches.
func TestEvalBatchColdRace(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)
	restore := []struct {
		v   *int
		old int
	}{
		{&parallelPartsMinWorlds, parallelPartsMinWorlds},
		{&parallelPartsMinAgents, parallelPartsMinAgents},
	}
	defer func() {
		for _, r := range restore {
			*r.v = r.old
		}
	}()
	parallelPartsMinWorlds = 128
	parallelPartsMinAgents = 2

	const n, agents = 768, 6
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

	ref := buildWideModel(n, agents, 3)
	want := make([]string, len(formulas))
	for i, f := range formulas {
		s, err := ref.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.String()
	}

	for rep := 0; rep < 4; rep++ {
		m := buildWideModel(n, agents, 3) // fresh: every table cold
		var wg sync.WaitGroup
		for b := 0; b < 3; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := m.EvalBatch(formulas, BatchWorkers(8))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range formulas {
					if got[i].String() != want[i] {
						t.Errorf("cold EvalBatch[%d] = %s, want %s", i, got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestEvalBatchErrors pins the error contract: the batch reports the error
// of the smallest failing index — what a serial loop would have stopped at
// — and temporal operators on a plain model fail with ErrTemporal.
func TestEvalBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randModel(rng, 64, 2)
	fs := []logic.Formula{
		logic.K(0, logic.P("p")),
		logic.K(7, logic.P("p")), // agent out of range: the first error
		logic.Ev(logic.P("p")),
	}
	_, err := m.EvalBatch(fs, BatchWorkers(4))
	if err == nil {
		t.Fatal("EvalBatch with an out-of-range agent returned no error")
	}
	if errors.Is(err, ErrTemporal) {
		t.Fatalf("EvalBatch reported a later index's error (%v), want the smallest index's", err)
	}
	_, err = m.EvalBatch(fs[2:], BatchWorkers(4))
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
	got, err := q.EvalBatch(fs, BatchWorkers(4))
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
