//go:build !race

// Allocation counts are pinned in builds without the race detector, whose
// instrumentation is not what these tests measure.

package kripke

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/logic"
)

// TestGroupKernelAllocs pins that E_G and S_G are plain serial loops of
// per-agent K passes: on a wide model at GOMAXPROCS=4, a warm Eval of
// E p, S p or E^3 q allocates no more than the K_0 formula of the same
// nesting does (K0 p, or K0 K0 K0 q, since every closed modal subformula
// costs one memo key) — no per-call goroutines, no per-shard
// accumulators. Allocations are read from runtime.MemStats
// (testing.AllocsPerRun forces GOMAXPROCS=1, which would hide a fan-out),
// with GC off so nothing the collector triggers runs inside a count.
func TestGroupKernelAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := buildWideModel(4096, 8, 1)
	p, q := logic.P("p"), logic.P("q")
	for _, c := range []struct{ group, single logic.Formula }{
		{logic.E(nil, p), logic.K(0, p)},
		{logic.S(nil, p), logic.K(0, p)},
		{logic.EK(nil, 3, q), logic.K(0, logic.K(0, logic.K(0, q)))},
	} {
		got, base := warmMallocs(t, m, c.group), warmMallocs(t, m, c.single)
		if got > base {
			t.Errorf("warm Eval(%s) = %.2f allocs/call, want <= %.2f (%s)", c.group, got, base, c.single)
		}
	}
}

// TestCosetKernelAllocs pins the allocations of warm K, E, D and C on the
// muddy:12 cube, whose agent, joint-view and reachability tables are all
// coset partitions (one generator, none, all twelve, and two for C{0,1},
// which folds): the coset kernel folds in the evaluator's kernel scratch,
// so each Eval allocates no more than the 3 of the generic CSR kernel.
func TestCosetKernelAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 3
	m := muddyCube(12, 1)
	m0, m1 := logic.P("muddy0"), logic.P("muddy1")
	for _, f := range []logic.Formula{
		logic.K(0, m1),
		logic.E(nil, logic.Disj(m0, m1)),
		logic.D(nil, m1),
		logic.D(logic.NewGroup(0, 1), m1),
		logic.C(nil, logic.Disj(m0, m1)),
		logic.C(logic.NewGroup(0, 1), logic.Disj(m0, m1)),
	} {
		if got := warmMallocs(t, m, f); got > limit {
			t.Errorf("warm Eval(%s) = %.2f allocs/call, want <= %d", f, got, limit)
		}
	}
	if p := m.part(m.tables(), 0); !p.coset {
		t.Fatal("the muddy cube's K_0 table is not a coset partition")
	}
}

// warmMallocs is the per-call allocation count of a warm m.Eval(f): the
// per-call average over the quietest of a few rounds, so a stray runtime
// allocation in one round is not charged to the kernel. Allocations are
// read from runtime.MemStats; callers turn GC off.
func warmMallocs(t *testing.T, m *Model, f logic.Formula) float64 {
	t.Helper()
	const rounds, runs = 5, 100
	if _, err := m.Eval(f); err != nil { // warm the tables and the pool
		t.Fatal(err)
	}
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := m.Eval(f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/runs)
	}
	return best
}
