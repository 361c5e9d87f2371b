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

// EvalTemporal implements kripke.TemporalSemantics for ◇, □, E^ε, E^⋄
// and E^T (the kripke evaluator builds C^ε, C^⋄ and C^T from them as
// greatest fixed points). Worlds are run-major, w = ri·span + t, so each
// run is the contiguous bit range [ri·span, (ri+1)·span) and every
// operator works run by run on that range.
func (pm *PointModel) EvalTemporal(dst *bitset.Set, op logic.Op, n int, agents []int, in []*bitset.Set) {
	dst.Clear()
	span := int(pm.Sys.Horizon) + 1
	for ri := range pm.Sys.Runs {
		lo, hi := ri*span, (ri+1)*span
		switch op {
		case logic.OpEventually, logic.OpAlways:
			suffixScan(dst, in[0], lo, hi, op == logic.OpAlways)
		case logic.OpEveryEps:
			everyEps(dst, in, n, lo, hi)
		case logic.OpEveryEv:
			// E^⋄_G φ: every member knows φ at some point of the run,
			// uniformly across the run (ti ranges over the whole run).
			all := true
			for _, k := range in {
				all = all && k.NextBefore(lo, hi) < hi
			}
			if all {
				dst.AddRange(lo, hi)
			}
		case logic.OpEveryTime:
			// E^T_G φ: every member knows φ at the first point of the run
			// where its clock reads at least T (and reaches T within the
			// horizon); uniform across the run like E^⋄.
			all := true
			for i, k := range in {
				at := pm.clockReaches(ri, agents[i], n)
				all = all && at < span && k.Contains(lo+at)
			}
			if all {
				dst.AddRange(lo, hi)
			}
		}
	}
}

// suffixScan adds ◇φ (all = false) or □φ (all = true) over the run [lo, hi)
// to dst by scanning the run backwards.
func suffixScan(dst, phi *bitset.Set, lo, hi int, all bool) {
	acc := all // identity for AND is true, for OR is false
	for w := hi - 1; w >= lo; w-- {
		if all {
			acc = acc && phi.Contains(w)
		} else {
			acc = acc || phi.Contains(w)
		}
		if acc {
			dst.Add(w)
		}
	}
}

// everyEps adds E^ε_G φ over the run [lo, hi) to dst: a point t qualifies
// iff some window [s, s+ε] with t-ε <= s <= t, clipped to the run (so near
// the horizon E^ε errs toward false), holds for each member a point where
// it knows φ. The windows slide from one member's next known point to the
// next, so the scan costs the known points, not the run's length.
func everyEps(dst *bitset.Set, know []*bitset.Set, eps, lo, hi int) {
	if eps < 0 {
		return // no window has negative length
	}
	eps = min(eps, hi-lo-1) // a longer window is clipped to the run anyway
	for s := lo; s < hi; {
		// first and last of the members' next known points from s.
		first, last := hi, s
		for _, k := range know {
			next := k.NextBefore(s, hi)
			first, last = min(first, next), max(last, next)
		}
		switch {
		case last >= hi:
			return // some member never knows φ again in this run
		case last > s+eps:
			s = last - eps // no window reaches every member before that start
		default:
			// Each window start in [s, first] sees the same next points,
			// all within ε: every point those windows cover qualifies.
			dst.AddRange(s, min(first+eps+1, hi))
			s = first + 1
		}
	}
}

// clockReaches returns the first time of run ri at which processor p's
// clock reads at least ts, or Horizon+1 if it never does within the
// horizon. A processor without a clock reads real time once awake (a
// system without clocks but with an external timestamped operator E^T).
func (pm *PointModel) clockReaches(ri, p, ts int) int {
	r := pm.Sys.Runs[ri]
	for t := Time(0); t <= pm.Sys.Horizon; t++ {
		reading, ok := int(t), t >= r.Wake[p]
		if r.HasClock(p) {
			reading, ok = r.ClockReading(p, t)
		}
		if ok && reading >= ts {
			return int(t)
		}
	}
	return int(pm.Sys.Horizon) + 1
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
