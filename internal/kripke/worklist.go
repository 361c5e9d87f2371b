package kripke

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// This file implements the incremental fixed-point path of the evaluator:
// chaotic iteration with an explicit frontier for greatest fixed points
// whose body has the "support" shape op_G(φ ∧ X) — the shape of the
// Halpern–Moses characterization C_G φ = νX.E_G(φ ∧ X), with op any of
// K_a, E_G, D_G or C_G and φ closed with respect to X.
//
// The naive Knaster–Tarski loop re-evaluates the whole body per step: on a
// chain of n worlds the ν-iteration takes ~n/2 steps and every step rescans
// every world outside the shrinking approximant, an O(n²) total. But the
// approximants only ever shrink, so a partition class that escaped the
// approximant once has failed forever: the only work step k+1 can add over
// step k is for classes that lost a member in step k. The worklist evaluator
// makes that delta explicit:
//
//   - acc starts as op_G(φ), the first approximant X₁ (X₀ is the full set).
//   - The frontier holds the worlds that left the approximant in the last
//     step. A class of one of the op partitions that intersects the
//     frontier newly fails; its whole mask is removed from acc with the
//     same word-level AND-NOTs the kernels use, deduplicated by a per-
//     partition epoch stamp that persists across iterations — each class is
//     removed at most once in the entire run, not once per step.
//   - Bits actually removed form the next frontier. The iteration converges
//     when a step removes nothing.
//
// Total cost is O(iterations·words + Σ class mask words): linear in the
// model instead of quadratic, while performing, step for step, exactly the
// downward iteration of Appendix A — the reported iteration count is
// identical to the naive loop's.
//
// Because every supported partition is reflexive (S5: each world lies in
// its own class), op(ψ) ⊆ ψ, so from the second step on the evaluated set
// φ ∧ X_k equals X_k and the frontier bookkeeping needs no separate copy of
// the conjunction.

// worklistShape matches a fixed-point body of the supported form
// op_G(φ ∧ X) (or op_G(X), with φ implicitly true): op is one of the S5
// knowledge operators, exactly one top-level conjunct is the fixed-point
// variable itself, and the remaining conjuncts do not mention the variable.
// It returns the modal node and the residual φ (Truth{true} when there are
// no other conjuncts).
func worklistShape(name string, body logic.Formula) (mod logic.Modal, phi logic.Formula, ok bool) {
	mod, ok = body.(logic.Modal)
	if !ok || mod.Op == logic.OpSomeone || mod.Op > logic.OpCommon {
		return mod, nil, false // S_G and the run-based operators have no partition form
	}
	switch c := mod.F.(type) {
	case logic.Var:
		if c.Name != name {
			return mod, nil, false
		}
		return mod, logic.True, true
	case logic.And:
		rest := make([]logic.Formula, 0, len(c.Fs))
		seenVar := false
		for _, f := range c.Fs {
			if v, isVar := f.(logic.Var); isVar && v.Name == name {
				if seenVar {
					return mod, nil, false
				}
				seenVar = true
				continue
			}
			if logic.PolarityOf(f, name) != logic.PolarityNone {
				return mod, nil, false
			}
			rest = append(rest, f)
		}
		if !seenVar {
			return mod, nil, false
		}
		if len(rest) == 0 {
			return mod, logic.True, true
		}
		return mod, logic.Conj(rest...), true
	}
	return mod, nil, false
}

// worklistParts resolves the partitions the modal operator of a supported
// body quantifies over: the agent's view partition for K_a, one partition
// per agent for E_G, the joint-view refinement for D_G and the reachability
// components for C_G. Empty or invalid groups (whose operators either have
// degenerate semantics the naive loop handles in one or two steps, or are
// errors the naive path reports with its usual message) report !ok. The
// returned slice aliases the evaluator's scratch and is valid until the
// next worklistParts call.
func (ev *evaluator) worklistParts(mod logic.Modal) ([]*partition, bool) {
	if mod.Op == logic.OpKnow {
		if mod.N < 0 || mod.N >= ev.m.numAgents {
			return nil, false
		}
		ev.wparts = append(ev.wparts[:0], ev.m.part(ev.t, mod.N))
		return ev.wparts, true
	}
	mark := len(ev.agents)
	defer func() { ev.agents = ev.agents[:mark] }()
	agents, err := ev.resolveAgents(mod.G)
	if err != nil || len(agents) == 0 {
		return nil, false
	}
	switch mod.Op {
	case logic.OpEveryone:
		ev.wparts = ev.wparts[:0]
		for _, a := range agents {
			ev.wparts = append(ev.wparts, ev.m.part(ev.t, a))
		}
	case logic.OpDist:
		ev.wparts = append(ev.wparts[:0], ev.m.jointPartition(ev.t, agents, ev.keyScratch()))
	default: // OpCommon
		ev.wparts = append(ev.wparts[:0], ev.m.reachPartition(ev.t, agents, ev.keyScratch()))
	}
	return ev.wparts, true
}

// fixpointWorklist computes νX.op_G(φ ∧ X) by chaotic iteration. parts are
// the partitions of op, phiSet the denotation of φ. The returned set is
// owned by the caller; ev.fixIters is set to the same iteration count the
// naive downward iteration would report.
func (ev *evaluator) fixpointWorklist(parts []*partition, phiSet *bitset.Set) *bitset.Set {
	// X₁ = op_G(φ): one kernel pass per partition.
	acc := ev.alloc()
	acc.Fill()
	for _, p := range parts {
		p.andKnowInto(acc, phiSet, &ev.ks)
	}
	if acc.IsFull() {
		ev.fixIters = 0 // X₁ == X₀: φ (and the model) were op-closed already
		return acc
	}

	// Persistent per-partition class stamps: a class is removed from acc at
	// most once over the whole run.
	for len(ev.wstamps) < len(parts) {
		ev.wstamps = append(ev.wstamps, kernelScratch{})
	}
	stamps := ev.wstamps[:len(parts)]
	for i, p := range parts {
		stamps[i].ensure(p.n)
		stamps[i].bump()
	}

	// frontier = ψ₀ \ X₁: the worlds whose loss step 2 must propagate. The
	// frontier is usually localized (on a chain it is the one or two worlds
	// at the failing boundary), so the loop tracks the word range its bits
	// occupy and scans only that window — per-step cost is proportional to
	// the frontier, not the universe.
	frontier := ev.alloc()
	frontier.Copy(phiSet)
	frontier.AndNot(acc)
	next := ev.alloc()
	next.Clear()

	aw := acc.Words()
	fw := frontier.Words()
	nw := next.Words()
	flo, fhi := len(fw), -1
	for wi, w := range fw {
		if w != 0 {
			if wi < flo {
				flo = wi
			}
			fhi = wi
		}
	}

	k := 1 // acc == X_k; frontier holds ψ_{k-1} \ X_k
	for flo <= fhi {
		nlo, nhi := len(nw), -1
		changed := false
		for pi, p := range parts {
			st := &stamps[pi]
			epoch, stamp := st.epoch, st.stamp
			for wi := flo; wi <= fhi; wi++ {
				w := fw[wi]
				base := wi << 6
				for w != 0 {
					id := p.ids[base+bits.TrailingZeros64(w)]
					w &= w - 1
					if stamp[id] == epoch {
						continue
					}
					stamp[id] = epoch
					for j := p.off[id]; j < p.off[id+1]; j++ {
						if rm := aw[p.idx[j]] & p.bits[j]; rm != 0 {
							wj := int(p.idx[j])
							aw[wj] &^= rm
							nw[wj] |= rm
							changed = true
							if wj < nlo {
								nlo = wj
							}
							if wj > nhi {
								nhi = wj
							}
						}
					}
				}
			}
		}
		if !changed {
			// Every frontier class had already failed: X_{k+1} = X_k.
			break
		}
		k++
		for wi := flo; wi <= fhi; wi++ {
			fw[wi] = 0
		}
		frontier, next = next, frontier
		fw, nw = nw, fw
		flo, fhi = nlo, nhi
	}
	ev.fixIters = k
	ev.release(frontier)
	ev.release(next)
	return acc
}
