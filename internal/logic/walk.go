package logic

import "fmt"

// Equal reports structural equality of two formulas, including bound
// variable names (no alpha-conversion).
func Equal(a, b Formula) bool {
	switch x := a.(type) {
	case Prop:
		y, ok := b.(Prop)
		return ok && x.Name == y.Name
	case Truth:
		y, ok := b.(Truth)
		return ok && x.Value == y.Value
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.F, y.F)
	case And:
		y, ok := b.(And)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Or:
		y, ok := b.(Or)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Implies:
		y, ok := b.(Implies)
		return ok && Equal(x.Ant, y.Ant) && Equal(x.Cons, y.Cons)
	case Iff:
		y, ok := b.(Iff)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Modal:
		y, ok := b.(Modal)
		return ok && x.Op == y.Op && x.N == y.N && x.G.Equal(y.G) && Equal(x.F, y.F)
	case Nu:
		y, ok := b.(Nu)
		return ok && x.Var == y.Var && Equal(x.Body, y.Body)
	case Mu:
		y, ok := b.(Mu)
		return ok && x.Var == y.Var && Equal(x.Body, y.Body)
	}
	return false
}

// children returns the immediate subformulas of f.
func children(f Formula) []Formula {
	switch x := f.(type) {
	case Prop, Truth, Var:
		return nil
	case Not:
		return []Formula{x.F}
	case And:
		return x.Fs
	case Or:
		return x.Fs
	case Implies:
		return []Formula{x.Ant, x.Cons}
	case Iff:
		return []Formula{x.L, x.R}
	case Modal:
		return []Formula{x.F}
	case Nu:
		return []Formula{x.Body}
	case Mu:
		return []Formula{x.Body}
	}
	return nil
}

// Walk applies fn to f and then, if fn returned true, to each subformula
// recursively (pre-order).
func Walk(f Formula, fn func(Formula) bool) {
	if !fn(f) {
		return
	}
	for _, c := range children(f) {
		Walk(c, fn)
	}
}

// Polarity classifies occurrences of a variable.
type Polarity int

// Polarity values. A variable occurs positively if it is under an even
// number of negations, negatively if under an odd number; PolarityNone means
// it does not occur free at all, and PolarityMixed that it has occurrences
// of both signs.
const (
	PolarityNone Polarity = iota
	PolarityPositive
	PolarityNegative
	PolarityMixed
)

func combinePolarity(a, b Polarity) Polarity {
	switch {
	case a == PolarityNone:
		return b
	case b == PolarityNone:
		return a
	case a == b:
		return a
	default:
		return PolarityMixed
	}
}

func flipPolarity(p Polarity) Polarity {
	switch p {
	case PolarityPositive:
		return PolarityNegative
	case PolarityNegative:
		return PolarityPositive
	default:
		return p
	}
}

// PolarityOf returns the polarity of free occurrences of variable x in f.
// Appendix A requires all free occurrences of the bound variable of νX.φ and
// μX.φ to be positive, which guarantees monotonicity of the associated
// set function.
func PolarityOf(f Formula, x string) Polarity {
	switch n := f.(type) {
	case Var:
		if n.Name == x {
			return PolarityPositive
		}
		return PolarityNone
	case Not:
		return flipPolarity(PolarityOf(n.F, x))
	case Implies:
		return combinePolarity(flipPolarity(PolarityOf(n.Ant, x)), PolarityOf(n.Cons, x))
	case Iff:
		// l ≡ r is (l ⊃ r) ∧ (r ⊃ l): every occurrence of X in it appears
		// with both signs. Each side is scanned once.
		if combinePolarity(PolarityOf(n.L, x), PolarityOf(n.R, x)) != PolarityNone {
			return PolarityMixed
		}
		return PolarityNone
	case Nu:
		if n.Var == x {
			return PolarityNone // shadowed
		}
		return PolarityOf(n.Body, x)
	case Mu:
		if n.Var == x {
			return PolarityNone
		}
		return PolarityOf(n.Body, x)
	default:
		p := PolarityNone
		for _, c := range children(f) {
			p = combinePolarity(p, PolarityOf(c, x))
		}
		return p
	}
}

// WellFormed checks the syntactic restriction of Appendix A: in every
// subformula νX.φ or μX.φ, all free occurrences of X in φ are positive.
func WellFormed(f Formula) error {
	var err error
	Walk(f, func(g Formula) bool {
		switch x := g.(type) {
		case Nu:
			if p := PolarityOf(x.Body, x.Var); p == PolarityNegative || p == PolarityMixed {
				err = fmt.Errorf("logic: variable %s occurs negatively in %s", x.Var, g)
				return false
			}
		case Mu:
			if p := PolarityOf(x.Body, x.Var); p == PolarityNegative || p == PolarityMixed {
				err = fmt.Errorf("logic: variable %s occurs negatively in %s", x.Var, g)
				return false
			}
		}
		return err == nil
	})
	return err
}

// Substitute returns f with every free occurrence of variable x replaced by
// repl (the paper's φ[repl/X]). Bound occurrences are left untouched;
// capture is not checked, so callers substituting formulas with free
// variables must ensure the bound variable names differ.
func Substitute(f Formula, x string, repl Formula) Formula {
	switch n := f.(type) {
	case Prop, Truth:
		return f
	case Var:
		if n.Name == x {
			return repl
		}
		return f
	case Not:
		return Not{F: Substitute(n.F, x, repl)}
	case And:
		fs := make([]Formula, len(n.Fs))
		for i, c := range n.Fs {
			fs[i] = Substitute(c, x, repl)
		}
		return And{Fs: fs}
	case Or:
		fs := make([]Formula, len(n.Fs))
		for i, c := range n.Fs {
			fs[i] = Substitute(c, x, repl)
		}
		return Or{Fs: fs}
	case Implies:
		return Implies{Ant: Substitute(n.Ant, x, repl), Cons: Substitute(n.Cons, x, repl)}
	case Iff:
		return Iff{L: Substitute(n.L, x, repl), R: Substitute(n.R, x, repl)}
	case Modal:
		n.F = Substitute(n.F, x, repl)
		return n
	case Nu:
		if n.Var == x {
			return f // shadowed
		}
		return Nu{Var: n.Var, Body: Substitute(n.Body, x, repl)}
	case Mu:
		if n.Var == x {
			return f
		}
		return Mu{Var: n.Var, Body: Substitute(n.Body, x, repl)}
	}
	return f
}
