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
			if rel.ids != nil {
				r.classSigs(rel)
			}
		}
		r.refine()
	})
	if allocs != 0 {
		t.Fatalf("steady-state classSigs + refine round = %.1f allocs, want 0", allocs)
	}
}
