package kripke

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// buildWideModel constructs a wide model whose tables take the generic
// kernel with its word-spanning class lists: numAgents random partitions
// installed columnar, plus two valuation columns.
func buildWideModel(n, numAgents int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, numAgents)
	p := b.Column("p")
	q := b.Column("q")
	for w := 0; w < n; w++ {
		if rng.Intn(2) == 0 {
			p.Add(w)
		}
		if rng.Intn(7) != 0 {
			q.Add(w)
		}
	}
	for a := 0; a < numAgents; a++ {
		classes := 1 + rng.Intn(n/2)
		ids := make([]int32, n)
		// Ensure density: first `classes` worlds pin one world per class.
		for w := 0; w < n; w++ {
			if w < classes {
				ids[w] = int32(w)
			} else {
				ids[w] = int32(rng.Intn(classes))
			}
		}
		b.SetPartition(a, ids, classes)
	}
	return b.Build()
}

// TestParallelKernelsRace drives the lazy partition-table construction,
// the switch from the class-id K pass to the table kernel, and the
// E_G/S_G kernels from eight goroutines at once, each a serial EvalBatch
// or Eval caller on one cold model (run under -race). GOMAXPROCS is raised
// so the callers overlap even on small CI machines; results are checked
// against a serially evaluated twin model.
func TestParallelKernelsRace(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)

	const n, agents = 1024, 8
	formulas := []logic.Formula{
		logic.E(nil, logic.P("p")),
		logic.S(nil, logic.Neg(logic.P("p"))),
		logic.E(logic.NewGroup(0, 3, 5, 7), logic.Disj(logic.P("p"), logic.P("q"))),
		logic.S(logic.NewGroup(1, 2, 4, 6), logic.P("q")),
		logic.EK(nil, 3, logic.P("q")),
		logic.C(nil, logic.Disj(logic.P("p"), logic.P("q"))),
		logic.D(logic.NewGroup(0, 1, 2, 3), logic.P("p")),
		logic.GFP("Z", logic.E(nil, logic.Conj(logic.P("q"), logic.X("Z")))),
	}

	// Serial reference on an identically built twin.
	ref := buildWideModel(n, agents, 1)
	want := make([]string, len(formulas))
	for i, f := range formulas {
		s, err := ref.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.String()
	}

	// Cold target: lazy table construction and the kernels race against
	// one another across 8 goroutines.
	m := buildWideModel(n, agents, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				// One goroutine runs an EvalBatch of every K_i, answered
				// from the installed class ids (or from a table already
				// built), while the others evaluate E_G and S_G passes that
				// build the per-agent tables once their ids have answered
				// knowIDsUses passes, and D_G, C_G and the ν worklist
				// build the same tables from their own goroutines.
				ks := make([]logic.Formula, agents)
				for a := range ks {
					ks[a] = logic.K(logic.Agent(a), logic.P("p"))
				}
				if _, err := m.EvalBatch(ks); err != nil {
					t.Error(err)
					return
				}
			}
			for rep := 0; rep < 12; rep++ {
				i := (g + rep) % len(formulas)
				s, err := m.Eval(formulas[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.String(); got != want[i] {
					t.Errorf("concurrent Eval(%s) = %s, want %s", formulas[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Restriction concurrent with evaluation: Restrict only reads the
	// source model (through the same lazily built tables, checked under
	// -race) and the restricted copies are evaluated in their own
	// goroutines.
	keep := bitset.New(n)
	for w := 0; w < n; w++ {
		if w%5 != 0 {
			keep.Add(w)
		}
	}
	subWant := make([]string, len(formulas))
	{
		sub := ref.Restrict(keep)
		for i, f := range formulas {
			s, err := sub.Eval(f)
			if err != nil {
				t.Fatal(err)
			}
			subWant[i] = s.String()
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := m.Restrict(keep)
			for i, f := range formulas {
				s, err := sub.Eval(f)
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.String(); got != subWant[i] {
					t.Errorf("restricted Eval(%s) = %s, want %s", f, got, subWant[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDerivedTablesBuiltOnce pins that every kind of derived table is built
// once (run under -race): eight goroutines ask a fresh model at the same
// moment for every agent's view partition, one joint-view table and one
// reachability table, half of them first the group tables and the group's
// per-agent tables (as the ν worklist over E_G builds them), so the group
// members' builds race the in-order ones. Every goroutine must get the
// identical *partition for each table, and it must be the cached one.
func TestDerivedTablesBuiltOnce(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)

	const n, agents, callers = 1024, 8, 8
	m := buildWideModel(n, agents, 5)
	group := []int{0, 2, 3, 5, 7}
	type tables struct {
		parts        []*partition
		joint, reach *partition
	}
	got := make([]tables, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			tb, out := m.tables(), &got[g]
			groups := func() {
				for _, a := range group {
					m.part(tb, a)
				}
				out.joint = m.jointPartition(tb, group, nil)
				out.reach = m.reachPartition(tb, group, nil)
			}
			if g%2 == 0 {
				groups()
			}
			for a := 0; a < agents; a++ {
				out.parts = append(out.parts, m.part(tb, a))
			}
			if g%2 == 1 {
				groups()
			}
		}(g)
	}
	close(start)
	wg.Wait()

	tb := m.tables()
	key := string(m.groupKey(nil, group))
	tb.mu.RLock()
	joint, reach := tb.joint[key].p.Load(), tb.reach[key].p.Load()
	tb.mu.RUnlock()
	if joint == nil || reach == nil {
		t.Fatalf("group tables not cached: joint %p, reach %p", joint, reach)
	}
	for g, out := range got {
		for a, p := range out.parts {
			if cached := tb.parts[a].p.Load(); p == nil || p != cached {
				t.Errorf("caller %d got agent %d table %p, cached %p", g, a, p, cached)
			}
		}
		if out.joint != joint || out.reach != reach {
			t.Errorf("caller %d got joint %p reach %p, cached joint %p reach %p",
				g, out.joint, out.reach, joint, reach)
		}
	}
}

// TestTableSlotRebuildsAfterPanic pins that a panicking table build leaves
// its slot empty and unlocked: the next caller builds the table again
// instead of blocking on the slot or reading a nil table.
func TestTableSlotRebuildsAfterPanic(t *testing.T) {
	var s tableSlot
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach the caller")
			}
		}()
		s.get(func() *partition { panic("build failed") })
	}()
	want := newPartition([]int32{0, 0, 1}, 2)
	if got := s.get(func() *partition { return want }); got != want {
		t.Fatalf("second get = %p, want the rebuilt table %p", got, want)
	}
	if got := s.get(func() *partition { t.Fatal("built a cached table again"); return nil }); got != want {
		t.Fatalf("cached get = %p, want %p", got, want)
	}
}

// TestMinimizeConcurrentScratch drives the shared refiner freelist from
// eight goroutines at once: each runs Minimize, QuotientForEval and
// Quotiented.Restrict on its own model, so refiners move between models of
// different sizes under contention (run under -race). Every result must
// equal the serial one.
func TestMinimizeConcurrentScratch(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)

	const workers, rounds = 8, 4
	type result struct {
		blocks, viewBlocks, nextBlocks []int
		viewWorlds, nextWorlds         int
	}
	models := make([]*Model, workers)
	keeps := make([]*bitset.Set, workers)
	rng := rand.New(rand.NewSource(8))
	for i := range models {
		if i%2 == 0 {
			models[i] = replicatedModel(rng, 4+rng.Intn(12), 2+rng.Intn(4), 1+rng.Intn(3))
		} else {
			models[i] = randomModel(rng, 40+rng.Intn(200), 1+rng.Intn(3))
		}
		keeps[i] = randKeep(rng, models[i].NumWorlds())
	}
	run := func(m *Model, keep *bitset.Set) result {
		_, blocks := m.Minimize()
		v := m.QuotientForEval(1)
		next := v.Restrict(keep, 1)
		return result{blocks, v.Blocks(), next.Blocks(), v.QuotientWorlds(), next.QuotientWorlds()}
	}
	want := make([]result, workers)
	for i, m := range models {
		want[i] = run(m, keeps[i])
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := run(models[i], keeps[i])
				w := want[i]
				if !slices.Equal(got.blocks, w.blocks) || !slices.Equal(got.viewBlocks, w.viewBlocks) ||
					!slices.Equal(got.nextBlocks, w.nextBlocks) ||
					got.viewWorlds != w.viewWorlds || got.nextWorlds != w.nextWorlds {
					errs <- fmt.Sprintf("model %d round %d: concurrent result differs from the serial one", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
