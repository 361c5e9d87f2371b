//go:build !race

package kripke

import (
	"math/rand"
	"testing"
)

// TestRefinerSteadyStateAllocs pins that the refinement kernel runs in its
// reusable scratch: on a warmed refiner over an already stable partition,
// one classSigs call per agent and one confirming refine round allocate
// nothing (no per-class sort closure, no map growth).
func TestRefinerSteadyStateAllocs(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(3)), 512, 3)
	r := m.newRefiner(nil, 0)
	r.splitByFacts()
	r.refine()
	if r.n < 2 {
		t.Fatalf("stable partition has %d blocks; the model should split", r.n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, rel := range r.rels {
			r.classSigs(rel)
		}
		r.refine()
	})
	if allocs != 0 {
		t.Fatalf("steady-state classSigs + refine round = %.1f allocs, want 0", allocs)
	}
}

// TestQuotientForEvalGateAllocs pins that the shrinkage gate reads the
// refined block count: a warm QuotientForEval on a muddy model, which is
// its own quotient, materializes nothing — no per-world names, no fact
// columns, no block map — so it allocates the same small constant (the
// view) at 256 and at 1024 worlds. The model built edge by edge pays the
// same constant as its columnar copy: its pending edges were resolved into
// class ids once, by the first call.
func TestQuotientForEvalGateAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{8, 10} {
		for _, m := range []*Model{columnar(muddyModel(n)), muddyModel(n)} {
			if m.QuotientForEval(1).Quotiented() {
				t.Fatalf("muddy:%d is its own quotient; the gate should keep the model", n)
			}
			allocs = append(allocs, testing.AllocsPerRun(20, func() { m.QuotientForEval(1) }))
		}
	}
	for _, a := range allocs {
		if a != allocs[0] || a > 1 {
			t.Fatalf("warm gated QuotientForEval = %v allocs (columnar and edge-built, 256 and 1024 worlds), want the same constant <= 1", allocs)
		}
	}
}

// TestMinimizeReusesScratch pins that Minimize's refiner scratch outlives
// the call: after a Minimize of another model of the same size, the
// refinement step allocates nothing, and a whole Minimize allocates only
// its outputs. Models built edge by edge run beside columnar ones: once
// their first Minimize has resolved the edges, they read the same class
// ids.
func TestMinimizeReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := []*Model{
		columnar(randomModel(rng, 512, 3)), columnar(randomModel(rng, 512, 3)),
		randomModel(rng, 512, 3), randomModel(rng, 512, 3),
	}
	blocks := 0
	for _, m := range ms {
		q, _ := m.Minimize()
		blocks += q.NumWorlds()
	}
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		i++
		ms[i%len(ms)].refineStable(nil).release()
	}); allocs != 0 {
		t.Fatalf("warm refinement step = %.1f allocs, want 0", allocs)
	}
	// Outputs: a name per quotient world, class ids per agent (3), a column
	// per fact (p, q), and the name column, block map and model, plus
	// slack for map and buffer growth.
	limit := float64(blocks)/float64(len(ms)) + 3 + 2*2 + 12
	if allocs := testing.AllocsPerRun(20, func() {
		i++
		ms[i%len(ms)].Minimize()
	}); allocs > limit {
		t.Fatalf("warm Minimize = %.1f allocs, want <= %.1f (outputs only)", allocs, limit)
	}
}
