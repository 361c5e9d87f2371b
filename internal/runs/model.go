package runs

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// PointModel is the Kripke model induced by a system under a view function
// and an interpretation: worlds are the points (r, t) of the system, agent
// partitions are determined by equal views, and ground facts by π. It
// additionally implements the temporal semantics of Sections 11–12 over the
// run/time structure of its worlds.
type PointModel struct {
	*kripke.Model
	Sys  *System
	View ViewFunc
}

var _ kripke.TemporalSemantics = (*PointModel)(nil)

// Model builds the point model of the system under the given view function
// and interpretation. Construction is columnar: each interpretation fact is
// written into its valuation column in one pass, and each agent's view
// partition is derived by interning the view keys of all points in a single
// sweep — one hash probe per point, no union-find — so systems rebuilt in
// tight experiment loops pay close to the minimum possible construction
// cost.
func (s *System) Model(view ViewFunc, interp Interpretation) *PointModel {
	span := int(s.Horizon) + 1
	b := kripke.NewBuilder(len(s.Runs)*span, s.N)

	for ri, r := range s.Runs {
		for t := 0; t < span; t++ {
			b.SetName(ri*span+t, fmt.Sprintf("(%s,%d)", r.Name, t))
		}
	}
	for prop, fn := range interp {
		col := b.Column(prop)
		for ri, r := range s.Runs {
			for t := Time(0); t <= s.Horizon; t++ {
				if fn(r, t) {
					col.Add(ri*span + int(t))
				}
			}
		}
	}

	// Partition points by view, per agent.
	for p := 0; p < s.N; p++ {
		b.PartitionFromKeys(p, func(w int) string {
			return view(s.Runs[w/span], p, Time(w%span))
		})
	}

	m := b.Build()
	pm := &PointModel{Model: m, Sys: s, View: view}
	m.Temporal = pm
	return pm
}

// EpistemicQuotient returns a quotient-before-eval view of the point model
// for formula batches free of the run-based operators: the batch evaluates
// on the bisimulation quotient when that shrinks the model (silent run
// tails and permuted histories collapse), with verdicts mapped back to the
// original points. minWorlds <= 0 applies the kripke default threshold.
// Temporal operators error out on the view — minimization does not
// preserve run/time structure — so batches using them must stay on the
// PointModel itself.
func (pm *PointModel) EpistemicQuotient(minWorlds int) *kripke.Quotiented {
	return pm.Model.QuotientForEvalEpistemic(minWorlds)
}

// World returns the world index of the point (run ri, time t).
func (pm *PointModel) World(ri int, t Time) int {
	return ri*(int(pm.Sys.Horizon)+1) + int(t)
}

// Point returns the (run index, time) of a world.
func (pm *PointModel) Point(w int) (int, Time) {
	span := int(pm.Sys.Horizon) + 1
	return w / span, Time(w % span)
}

// WorldOf returns the world index of the point (named run, time t).
func (pm *PointModel) WorldOf(runName string, t Time) (int, error) {
	for ri, r := range pm.Sys.Runs {
		if r.Name == runName {
			return pm.World(ri, t), nil
		}
	}
	return 0, fmt.Errorf("runs: no run named %q", runName)
}

// HoldsAt reports whether f holds at the point (named run, time t).
func (pm *PointModel) HoldsAt(f logic.Formula, runName string, t Time) (bool, error) {
	w, err := pm.WorldOf(runName, t)
	if err != nil {
		return false, err
	}
	return pm.Holds(f, w)
}

// clockReading returns the effective clock reading of processor p at (ri, t):
// the run's clock if it has one, and real time otherwise (a system without
// clocks but with an external timestamped operator E^T reads real time).
func (pm *PointModel) clockReading(ri, p int, t Time) (int, bool) {
	r := pm.Sys.Runs[ri]
	if r.HasClock(p) {
		return r.ClockReading(p, t)
	}
	if t < r.Wake[p] {
		return 0, false
	}
	return int(t), true
}

// EvalTemporal implements kripke.TemporalSemantics for the run-based
// operators. rec evaluates subformulas in the current environment.
func (pm *PointModel) EvalTemporal(m *kripke.Model, f logic.Formula, rec func(logic.Formula) (*bitset.Set, error)) (*bitset.Set, error) {
	n, ok := f.(logic.Modal)
	if !ok || !n.Op.Temporal() {
		return nil, fmt.Errorf("runs: unsupported temporal formula %s", f)
	}
	var agents []int
	if n.Op.Grouped() {
		var err error
		if agents, err = m.GroupAgents(n.G); err != nil {
			return nil, err
		}
	}
	s, err := rec(n.F)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case logic.OpEventually:
		return pm.suffixScan(s, false), nil
	case logic.OpAlways:
		return pm.suffixScan(s, true), nil
	case logic.OpEveryEps:
		return pm.everyEpsSet(agents, n.N, s), nil
	case logic.OpCommonEps:
		return pm.gfp(s, func(x *bitset.Set) *bitset.Set { return pm.everyEpsSet(agents, n.N, x) })
	case logic.OpEveryEv:
		return pm.everyEvSet(agents, s), nil
	case logic.OpCommonEv:
		return pm.gfp(s, func(x *bitset.Set) *bitset.Set { return pm.everyEvSet(agents, x) })
	case logic.OpEveryTime:
		return pm.everyTimeSet(agents, n.N, s), nil
	default: // OpCommonTime
		return pm.gfp(s, func(x *bitset.Set) *bitset.Set { return pm.everyTimeSet(agents, n.N, x) })
	}
}

// gfp computes the greatest fixed point of X ↦ step(phi ∧ X), the shape
// shared by C^ε, C^⋄ and C^T (Sections 11–12 and Appendix A). This is the
// temporal sibling of the kripke worklist shape check νX.op_G(φ ∧ X): the
// timeline steps have no support form to iterate incrementally (their
// "support" is the per-run suffix structure), but the invariant parts of
// the loop are hoisted all the same — the conjunction φ ∧ X runs in a
// reused scratch set instead of allocating per iteration, and the
// know-timelines behind step are memoized on the step's input: step is a
// pure function of φ ∧ X, so when that set repeats — always the case on
// the convergence-confirming iteration, since X_{k+1} = step(φ ∧ X_k) —
// the previous output is the fixed point and the whole per-agent
// know-timeline recomputation is skipped.
func (pm *PointModel) gfp(phi *bitset.Set, step func(*bitset.Set) *bitset.Set) (*bitset.Set, error) {
	W := pm.NumWorlds()
	cur := bitset.NewFull(W)
	x := bitset.New(W)    // reused scratch for φ ∧ X
	prev := bitset.New(W) // step input of the previous iteration
	for i := 0; i <= W+1; i++ {
		x.Copy(phi)
		x.And(cur)
		if i > 0 && x.Equal(prev) {
			// step(x) would recompute the previous iteration's output,
			// which is cur: the fixed point is confirmed without another
			// pass over the know-timelines.
			return cur, nil
		}
		prev.Copy(x)
		next := step(x)
		if next.Equal(cur) {
			return cur, nil
		}
		cur = next
	}
	return nil, fmt.Errorf("runs: temporal fixed point did not converge")
}

// suffixScan computes ◇φ (conj=false) or □φ (conj=true) by scanning each
// run backwards.
func (pm *PointModel) suffixScan(phi *bitset.Set, conj bool) *bitset.Set {
	out := bitset.New(pm.NumWorlds())
	span := int(pm.Sys.Horizon) + 1
	for ri := range pm.Sys.Runs {
		acc := conj // identity for AND is true, for OR is false
		for t := span - 1; t >= 0; t-- {
			w := ri*span + t
			if conj {
				acc = acc && phi.Contains(w)
			} else {
				acc = acc || phi.Contains(w)
			}
			if acc {
				out.Add(w)
			}
		}
	}
	return out
}

// knowTimelines computes, for each agent in agents and each run, the
// timeline of K_a φ truth values.
func (pm *PointModel) knowTimelines(agents []int, phi *bitset.Set) map[int]*bitset.Set {
	out := make(map[int]*bitset.Set, len(agents))
	for _, a := range agents {
		out[a] = pm.KnowSet(a, phi)
	}
	return out
}

// everyEpsSet computes E^ε_G φ: the point (r, t) is in the result iff there
// is an interval [t', t'+ε] containing t such that every agent in agents
// knows φ at some point of the interval (clipped to the horizon; see
// package comment on finite-horizon conservatism).
func (pm *PointModel) everyEpsSet(agents []int, eps int, phi *bitset.Set) *bitset.Set {
	know := pm.knowTimelines(agents, phi)
	out := bitset.New(pm.NumWorlds())
	span := int(pm.Sys.Horizon) + 1
	for ri := range pm.Sys.Runs {
		// okStart[t'] = every agent knows φ somewhere in [t', min(t'+eps, H)].
		okStart := make([]bool, span)
		for start := 0; start < span; start++ {
			end := start + eps
			if end > span-1 {
				end = span - 1
			}
			ok := true
			for _, a := range agents {
				found := false
				for t := start; t <= end; t++ {
					if know[a].Contains(ri*span + t) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			okStart[start] = ok
		}
		for t := 0; t < span; t++ {
			// (r,t) qualifies if some interval starting in [t-eps, t] works.
			lo := t - eps
			if lo < 0 {
				lo = 0
			}
			for start := lo; start <= t; start++ {
				if okStart[start] {
					out.Add(ri*span + t)
					break
				}
			}
		}
	}
	return out
}

// everyEvSet computes E^⋄_G φ: (r, t) is in the result iff every agent in
// agents knows φ at some point of run r. The result is uniform across the
// run, as in the paper's definition (ti ranges over the whole run).
func (pm *PointModel) everyEvSet(agents []int, phi *bitset.Set) *bitset.Set {
	know := pm.knowTimelines(agents, phi)
	out := bitset.New(pm.NumWorlds())
	span := int(pm.Sys.Horizon) + 1
	for ri := range pm.Sys.Runs {
		ok := true
		for _, a := range agents {
			found := false
			for t := 0; t < span; t++ {
				if know[a].Contains(ri*span + t) {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			for t := 0; t < span; t++ {
				out.Add(ri*span + t)
			}
		}
	}
	return out
}

// everyTimeSet computes E^T_G φ: (r, t) is in the result iff every agent in
// agents knows φ at the first point of run r where its clock reads at least
// T (and actually reaches T within the horizon). Like E^⋄, the truth value
// is uniform across the run. Processors without clocks read real time.
func (pm *PointModel) everyTimeSet(agents []int, ts int, phi *bitset.Set) *bitset.Set {
	know := pm.knowTimelines(agents, phi)
	out := bitset.New(pm.NumWorlds())
	span := int(pm.Sys.Horizon) + 1
	for ri := range pm.Sys.Runs {
		ok := true
		for _, a := range agents {
			at := -1
			for t := 0; t < span; t++ {
				if reading, defined := pm.clockReading(ri, a, Time(t)); defined && reading >= ts {
					at = t
					break
				}
			}
			if at < 0 || !know[a].Contains(ri*span+at) {
				ok = false
				break
			}
		}
		if ok {
			for t := 0; t < span; t++ {
				out.Add(ri*span + t)
			}
		}
	}
	return out
}

// CheckLemma3 verifies Lemma 3 of the paper on this model: for every agent
// i in g and every pair of points at which i has the same view, C_G φ has
// the same truth value, for each φ in the family.
func (pm *PointModel) CheckLemma3(g logic.Group, formulas []logic.Formula) error {
	agents, err := pm.GroupAgents(g)
	if err != nil {
		return err
	}
	span := int(pm.Sys.Horizon) + 1
	for _, phi := range formulas {
		set, err := pm.Eval(logic.C(g, phi))
		if err != nil {
			return err
		}
		for _, a := range agents {
			// The truth of C_G φ must be constant on each view class.
			value := make(map[string]bool)
			for ri, r := range pm.Sys.Runs {
				for t := 0; t < span; t++ {
					key := pm.View(r, a, Time(t))
					holds := set.Contains(pm.World(ri, Time(t)))
					if prev, ok := value[key]; ok {
						if prev != holds {
							return fmt.Errorf("runs: Lemma 3 violated for %s at (%s,%d), agent %d", phi, r.Name, t, a)
						}
					} else {
						value[key] = holds
					}
				}
			}
		}
	}
	return nil
}

// GReachable reports whether the point (rj, tj) is G-reachable from
// (ri, ti) in the Section 6 graph of the model.
func (pm *PointModel) GReachable(g logic.Group, ri int, ti Time, rj int, tj Time) (bool, error) {
	ids, err := pm.GReachIDs(g)
	if err != nil {
		return false, err
	}
	return ids[pm.World(ri, ti)] == ids[pm.World(rj, tj)], nil
}
