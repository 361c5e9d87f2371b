// Package fixpoint implements the Appendix A view of formulas as set
// functions: a formula with a free propositional variable X denotes a
// function from world sets to world sets, fixed-point formulas νX.φ / μX.φ
// denote its greatest/least fixed points (Knaster–Tarski), and the
// syntactic positivity restriction guarantees monotonicity.
//
// The package provides the function view, iterative fixed-point computation
// with iteration counts, monotonicity probes, and semantic checkers for the
// general fixed-point axiom νX.φ ≡ φ[νX.φ/X] and induction rule
// (from ψ ⊃ φ[ψ/X] infer ψ ⊃ νX.φ) that generalize C1 and C2.
package fixpoint

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// SetFunc maps world sets to world sets — the denotation φ^M of Appendix A.
type SetFunc func(*bitset.Set) (*bitset.Set, error)

// FuncOf returns the set function denoted by body, viewed as a function of
// the variable x, over the model m (with any other free variables resolved
// by env).
func FuncOf(m *kripke.Model, body logic.Formula, x string, env kripke.Env) SetFunc {
	return func(a *bitset.Set) (*bitset.Set, error) {
		e := kripke.Env{}
		for k, v := range env {
			e[k] = v
		}
		e[x] = a
		return m.EvalEnv(body, e)
	}
}

// GFP computes the greatest fixed point of f over a universe of n worlds by
// downward iteration from the full set, returning the fixed point and the
// number of iterations to convergence. Non-monotone functions may fail to
// converge, which is reported as an error.
func GFP(f SetFunc, n int) (*bitset.Set, int, error) {
	cur := bitset.NewFull(n)
	for i := 0; i <= n+1; i++ {
		next, err := f(cur)
		if err != nil {
			return nil, 0, err
		}
		if next.Equal(cur) {
			return cur, i, nil
		}
		cur = next
	}
	return nil, 0, fmt.Errorf("fixpoint: no convergence after %d iterations", n+1)
}

// LFP computes the least fixed point of f by upward iteration from the
// empty set.
func LFP(f SetFunc, n int) (*bitset.Set, int, error) {
	cur := bitset.New(n)
	for i := 0; i <= n+1; i++ {
		next, err := f(cur)
		if err != nil {
			return nil, 0, err
		}
		if next.Equal(cur) {
			return cur, i, nil
		}
		cur = next
	}
	return nil, 0, fmt.Errorf("fixpoint: no convergence after %d iterations", n+1)
}

// IsFixedPoint reports whether f(a) = a.
func IsFixedPoint(f SetFunc, a *bitset.Set) (bool, error) {
	b, err := f(a)
	if err != nil {
		return false, err
	}
	return b.Equal(a), nil
}

// CheckMonotone probes monotonicity of f on random nested pairs A ⊆ B: it
// verifies f(A) ⊆ f(B). It is a sound refutation procedure and a
// probabilistic confirmation.
func CheckMonotone(f SetFunc, n int, trials int, rng *rand.Rand) error {
	for trial := 0; trial < trials; trial++ {
		a := bitset.New(n)
		b := bitset.New(n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0: // in both
				a.Add(i)
				b.Add(i)
			case 1: // only in b
				b.Add(i)
			}
		}
		fa, err := f(a)
		if err != nil {
			return err
		}
		fb, err := f(b)
		if err != nil {
			return err
		}
		if !fa.SubsetOf(fb) {
			return fmt.Errorf("fixpoint: not monotone: f(%s) ⊄ f(%s)", a, b)
		}
	}
	return nil
}

// CheckFixedPointAxiom verifies the general fixed point axiom
// νX.φ ≡ φ[νX.φ/X] semantically on the model.
func CheckFixedPointAxiom(m *kripke.Model, nu logic.Nu) error {
	lhs, err := m.Eval(nu)
	if err != nil {
		return err
	}
	unfolded := logic.Substitute(nu.Body, nu.Var, nu)
	rhs, err := m.Eval(unfolded)
	if err != nil {
		return err
	}
	if !lhs.Equal(rhs) {
		return fmt.Errorf("fixpoint: νX axiom fails: %s != its unfolding", nu)
	}
	return nil
}

// CheckInductionRule verifies the general induction rule on the model: for
// each sample ψ, if ψ ⊃ φ[ψ/X] is valid then ψ ⊃ νX.φ is valid.
func CheckInductionRule(m *kripke.Model, nu logic.Nu, samples []logic.Formula) error {
	for _, psi := range samples {
		prem, err := m.Valid(logic.Imp(psi, logic.Substitute(nu.Body, nu.Var, psi)))
		if err != nil {
			return err
		}
		if !prem {
			continue
		}
		conc, err := m.Valid(logic.Imp(psi, nu))
		if err != nil {
			return err
		}
		if !conc {
			return fmt.Errorf("fixpoint: induction rule fails for ψ = %s on %s", psi, nu)
		}
	}
	return nil
}

// TowerVsGFP compares the naive operator tower op^k(φ) (e.g. (E^⋄)^k φ)
// against the greatest fixed point of X ≡ op(φ ∧ X) (e.g. C^⋄ φ) on a
// model. The paper's Appendix A shows the two can differ: the gfp implies
// every tower level, but not conversely. It returns the set where the whole
// tower (up to maxK) holds and the gfp set.
func TowerVsGFP(m *kripke.Model, op func(logic.Formula) logic.Formula, phi logic.Formula, maxK int) (tower, gfp *bitset.Set, err error) {
	tower = bitset.NewFull(m.NumWorlds())
	cur := phi
	for k := 1; k <= maxK; k++ {
		cur = op(cur)
		s, err := m.Eval(cur)
		if err != nil {
			return nil, nil, err
		}
		tower.And(s)
	}
	phiSet, err := m.Eval(phi)
	if err != nil {
		return nil, nil, err
	}
	in := bitset.New(m.NumWorlds())
	f := func(a *bitset.Set) (*bitset.Set, error) {
		in.Copy(phiSet)
		in.And(a)
		// op applied to an arbitrary set: encode via a fresh variable.
		return m.EvalEnv(op(logic.X("__t")), kripke.Env{"__t": in})
	}
	gfp, _, err = GFP(f, m.NumWorlds())
	if err != nil {
		return nil, nil, err
	}
	return tower, gfp, nil
}
