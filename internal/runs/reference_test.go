package runs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// refModel is a test-only evaluator of the run-based operators, written
// straight from the definitions of Sections 6, 11 and 12 and sharing
// nothing with the kripke evaluator: K_a compares view strings point by
// point, E^ε, E^⋄ and E^T loop over the points of each run, and C^ε, C^⋄
// and C^T are plain Knaster–Tarski iterations over []bool.
type refModel struct {
	sys    *System
	interp Interpretation
	span   int
	same   [][][]int // same[a][w]: the points whose view for a equals w's
}

func newRefModel(sys *System, view ViewFunc, interp Interpretation) *refModel {
	rm := &refModel{sys: sys, interp: interp, span: int(sys.Horizon) + 1}
	n := len(sys.Runs) * rm.span
	for a := 0; a < sys.N; a++ {
		views := make([]string, n)
		for w := range views {
			views[w] = view(sys.Runs[w/rm.span], a, Time(w%rm.span))
		}
		same := make([][]int, n)
		for w := range same {
			for v := range views {
				if views[v] == views[w] {
					same[w] = append(same[w], v)
				}
			}
		}
		rm.same = append(rm.same, same)
	}
	return rm
}

func (rm *refModel) points() int { return len(rm.sys.Runs) * rm.span }

func (rm *refModel) eval(f logic.Formula) []bool {
	out := make([]bool, rm.points())
	switch n := f.(type) {
	case logic.Prop:
		for w := range out {
			out[w] = rm.interp[n.Name](rm.sys.Runs[w/rm.span], Time(w%rm.span))
		}
	case logic.Not:
		for w, v := range rm.eval(n.F) {
			out[w] = !v
		}
	case logic.Or:
		for _, c := range n.Fs {
			for w, v := range rm.eval(c) {
				out[w] = out[w] || v
			}
		}
	case logic.Modal:
		phi := rm.eval(n.F)
		agents := make([]int, 0, rm.sys.N)
		if n.G == nil {
			for a := 0; a < rm.sys.N; a++ {
				agents = append(agents, a)
			}
		}
		for _, a := range n.G {
			agents = append(agents, int(a))
		}
		switch n.Op {
		case logic.OpKnow:
			return rm.know(n.N, phi)
		case logic.OpEventually:
			return rm.suffix(phi, false)
		case logic.OpAlways:
			return rm.suffix(phi, true)
		case logic.OpEveryEps:
			return rm.everyEps(agents, n.N, phi)
		case logic.OpEveryEv:
			return rm.everyEv(agents, phi)
		case logic.OpEveryTime:
			return rm.everyTime(agents, n.N, phi)
		case logic.OpCommonEps:
			return rm.gfp(phi, func(x []bool) []bool { return rm.everyEps(agents, n.N, x) })
		case logic.OpCommonEv:
			return rm.gfp(phi, func(x []bool) []bool { return rm.everyEv(agents, x) })
		case logic.OpCommonTime:
			return rm.gfp(phi, func(x []bool) []bool { return rm.everyTime(agents, n.N, x) })
		}
		panic(fmt.Sprintf("reference: unsupported operator in %s", f))
	default:
		panic(fmt.Sprintf("reference: unsupported formula %s", f))
	}
	return out
}

// know is K_a φ: φ holds at every point where a's view is the same.
func (rm *refModel) know(a int, phi []bool) []bool {
	out := make([]bool, len(phi))
	for w := range out {
		out[w] = true
		for _, v := range rm.same[a][w] {
			out[w] = out[w] && phi[v]
		}
	}
	return out
}

// suffix is ◇φ (all = false) or □φ (all = true): φ at some or every time
// from now to the horizon of the same run.
func (rm *refModel) suffix(phi []bool, all bool) []bool {
	out := make([]bool, len(phi))
	for w := range out {
		ri, t := w/rm.span, w%rm.span
		out[w] = all
		for u := t; u < rm.span; u++ {
			if phi[ri*rm.span+u] != all {
				out[w] = !all
			}
		}
	}
	return out
}

// knowsIn reports whether a knows φ at some time of run ri in [lo, hi],
// clipped to the horizon.
func (rm *refModel) knowsIn(k []bool, ri, lo, hi int) bool {
	for u := lo; u <= hi; u++ {
		if u >= 0 && u < rm.span && k[ri*rm.span+u] {
			return true
		}
	}
	return false
}

// everyEps is E^ε_G φ (§11): some interval [t', t'+ε] containing now in
// which every member of G knows φ at some point.
func (rm *refModel) everyEps(agents []int, eps int, phi []bool) []bool {
	know := make([][]bool, len(agents))
	for i, a := range agents {
		know[i] = rm.know(a, phi)
	}
	out := make([]bool, len(phi))
	for w := range out {
		ri, t := w/rm.span, w%rm.span
		for start := t - eps; start <= t && !out[w]; start++ {
			all := true
			for _, k := range know {
				all = all && rm.knowsIn(k, ri, start, start+eps)
			}
			out[w] = all
		}
	}
	return out
}

// everyEv is E^⋄_G φ (§11): every member of G knows φ at some point of the
// run.
func (rm *refModel) everyEv(agents []int, phi []bool) []bool {
	out := make([]bool, len(phi))
	for w := range out {
		out[w] = true
		for _, a := range agents {
			out[w] = out[w] && rm.knowsIn(rm.know(a, phi), w/rm.span, 0, rm.span-1)
		}
	}
	return out
}

// everyTime is E^T_G φ (§12): every member of G knows φ at the first point
// of the run where its clock reads at least T. A processor without a clock
// reads real time once it is awake.
func (rm *refModel) everyTime(agents []int, ts int, phi []bool) []bool {
	out := make([]bool, len(phi))
	for w := range out {
		r := rm.sys.Runs[w/rm.span]
		out[w] = true
		for _, a := range agents {
			at := -1
			for u := 0; u < rm.span && at < 0; u++ {
				reading, ok := int(u), Time(u) >= r.Wake[a]
				if r.HasClock(a) {
					reading, ok = r.ClockReading(a, Time(u))
				}
				if ok && reading >= ts {
					at = u
				}
			}
			out[w] = out[w] && at >= 0 && rm.know(a, phi)[w/rm.span*rm.span+at]
		}
	}
	return out
}

// gfp is νX.step(φ ∧ X) by downward Knaster–Tarski iteration.
func (rm *refModel) gfp(phi []bool, step func([]bool) []bool) []bool {
	x := make([]bool, len(phi))
	for w := range x {
		x[w] = true
	}
	for i := 0; i <= len(phi)+1; i++ {
		in := make([]bool, len(phi))
		for w := range in {
			in[w] = phi[w] && x[w]
		}
		next := step(in)
		same := true
		for w := range x {
			same = same && next[w] == x[w]
		}
		if same {
			return x
		}
		x = next
	}
	panic("reference: greatest fixed point did not converge")
}

// randomRefSystem builds a random run system: random views, props, wake-up
// times and clocks (some processors without one). Every tenth system has a
// horizon past 64, so single runs span several bitset words.
func randomRefSystem(rng *rand.Rand, seed int) (*System, ViewFunc, Interpretation) {
	n := 1 + rng.Intn(3)
	horizon := Time(rng.Intn(10))
	nruns := 1 + rng.Intn(7)
	if seed%10 == 9 {
		horizon, nruns = Time(64+rng.Intn(8)), 1+rng.Intn(2)
	}
	span := int(horizon) + 1
	rs := make([]*Run, nruns)
	index := make(map[*Run]int, nruns)
	for ri := range rs {
		r := NewRun(fmt.Sprintf("r%d", ri), n, horizon)
		for p := 0; p < n; p++ {
			if rng.Intn(2) == 0 {
				r.Wake[p] = Time(rng.Intn(span))
			}
			if rng.Intn(3) == 0 {
				continue // no clock: reads real time once awake
			}
			readings := make([]int, span)
			reading := rng.Intn(3)
			for t := range readings {
				if t > int(r.Wake[p]) {
					reading += rng.Intn(3)
				}
				readings[t] = reading
			}
			if err := r.SetClock(p, readings); err != nil {
				panic(err)
			}
		}
		rs[ri] = r
		index[r] = ri
	}
	classes := 1 + rng.Intn(4)
	views := make([]string, nruns*n*span)
	for i := range views {
		views[i] = fmt.Sprint(rng.Intn(classes))
	}
	view := func(r *Run, p int, t Time) string { return views[(index[r]*n+p)*span+int(t)] }
	interp := Interpretation{}
	for _, name := range []string{"p", "q"} {
		val := make([]bool, nruns*span)
		for i := range val {
			val[i] = rng.Intn(2) == 0
		}
		interp[name] = func(r *Run, t Time) bool { return val[index[r]*span+int(t)] }
	}
	return MustSystem(rs...), view, interp
}

var refTemporalOps = []logic.Op{
	logic.OpEveryEps, logic.OpCommonEps, logic.OpEveryEv, logic.OpCommonEv,
	logic.OpEveryTime, logic.OpCommonTime, logic.OpEventually, logic.OpAlways,
}

// randomRefModal applies op to f with a random group (all agents, an empty
// group or a random subset) and a random ε or T.
func randomRefModal(rng *rand.Rand, op logic.Op, n int, horizon Time, f logic.Formula) logic.Formula {
	m := logic.Modal{Op: op, F: f}
	switch op {
	case logic.OpEveryEps, logic.OpCommonEps:
		m.N = rng.Intn(4)
	case logic.OpEveryTime, logic.OpCommonTime:
		m.N = rng.Intn(int(horizon) + 4)
	}
	if op.Grouped() {
		switch rng.Intn(4) {
		case 0:
			m.G = logic.Group{}
		case 1:
			for a := 0; a < n; a++ {
				if rng.Intn(2) == 0 {
					m.G = append(m.G, logic.Agent(a))
				}
			}
		}
	}
	return m
}

// TestTemporalOperatorsMatchReference evaluates all eight run-based
// operators, alone and with one level of nesting under each of them, on
// random run systems, and compares every point with the reference.
func TestTemporalOperatorsMatchReference(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sys, view, interp := randomRefSystem(rng, seed)
		pm := sys.Model(view, interp)
		rm := newRefModel(sys, view, interp)
		bases := []logic.Formula{
			logic.P("p"),
			logic.Disj(logic.P("p"), logic.Neg(logic.P("q"))),
			logic.K(logic.Agent(rng.Intn(sys.N)), logic.P("q")),
		}
		for _, outer := range refTemporalOps {
			for i := -1; i < len(refTemporalOps); i++ {
				f := bases[rng.Intn(len(bases))]
				if i >= 0 {
					f = randomRefModal(rng, refTemporalOps[i], sys.N, sys.Horizon, f)
				}
				f = randomRefModal(rng, outer, sys.N, sys.Horizon, f)
				got, err := pm.Eval(f)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, f, err)
				}
				for w, want := range rm.eval(f) {
					if got.Contains(w) != want {
						ri, tt := pm.Point(w)
						t.Fatalf("seed %d (%d runs, horizon %d): %s at (r%d,%d) = %v, reference %v",
							seed, len(sys.Runs), sys.Horizon, f, ri, tt, got.Contains(w), want)
					}
				}
			}
		}
		// An ε past the horizon is clipped to the run: it must not
		// overflow, and it means the same as ε = horizon.
		huge, err := pm.Eval(logic.Ceps(nil, math.MaxInt, logic.P("p")))
		if err != nil {
			t.Fatal(err)
		}
		for w, want := range rm.eval(logic.Ceps(nil, int(sys.Horizon), logic.P("p"))) {
			if huge.Contains(w) != want {
				t.Fatalf("seed %d: Ce[MaxInt] p at world %d = %v, reference for Ce[%d] %v", seed, w, !want, sys.Horizon, want)
			}
		}
	}
}
