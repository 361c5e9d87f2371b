package logic

import "strconv"

// AppendKey appends a canonical structural key of f to dst and reports
// whether f is closed (contains no free fixed-point variables). Two
// formulas receive the same key iff they are structurally equal in the
// sense of Equal. The encoding is prefix-free: names are length-prefixed
// and n-ary connectives carry their arity, so keys of distinct formulas
// never collide.
//
// The kripke evaluation engine uses keys to memoize subformula denotations
// within a single model-checking run: closed subformulas denote the same
// world set at every occurrence, so their keys index a per-evaluation
// cache. Appending into a caller-owned buffer keeps key construction
// allocation-free on the hot path.
//
// bound is the stack of fixed-point variables in scope; pass nil at the
// top level. It may be appended to internally, so callers reusing a
// scratch slice should pass bound[:0].
func AppendKey(dst []byte, f Formula, bound []string) ([]byte, bool) {
	switch n := f.(type) {
	case Prop:
		return appendName(append(dst, 'p'), n.Name), true
	case Truth:
		if n.Value {
			return append(dst, '1'), true
		}
		return append(dst, '0'), true
	case Var:
		for _, b := range bound {
			if b == n.Name {
				return appendName(append(dst, 'x'), n.Name), true
			}
		}
		return appendName(append(dst, 'x'), n.Name), false
	case Not:
		return AppendKey(append(dst, '!'), n.F, bound)
	case And:
		return appendNary(dst, '&', n.Fs, bound)
	case Or:
		return appendNary(dst, '|', n.Fs, bound)
	case Implies:
		dst, c1 := AppendKey(append(dst, '>'), n.Ant, bound)
		dst, c2 := AppendKey(dst, n.Cons, bound)
		return dst, c1 && c2
	case Iff:
		dst, c1 := AppendKey(append(dst, '='), n.L, bound)
		dst, c2 := AppendKey(dst, n.R, bound)
		return dst, c1 && c2
	case Modal:
		op := &ops[n.Op]
		dst = append(dst, op.key...)
		switch op.param {
		case paramAgent:
			dst = append(strconv.AppendInt(dst, int64(n.N), 10), ':')
		case paramBracket:
			dst = strconv.AppendInt(dst, int64(n.N), 10)
		}
		if op.group {
			dst = appendGroup(dst, n.G)
		}
		return AppendKey(dst, n.F, bound)
	case Nu:
		return AppendKey(appendName(append(dst, 'n'), n.Var), n.Body, append(bound, n.Var))
	case Mu:
		return AppendKey(appendName(append(dst, 'm'), n.Var), n.Body, append(bound, n.Var))
	}
	// Unknown node: fall back to the rendered form; never memoizable.
	return append(dst, f.String()...), false
}

// Key returns the structural key of f as a string, with the closedness
// flag of AppendKey.
func Key(f Formula) (string, bool) {
	dst, closed := AppendKey(nil, f, nil)
	return string(dst), closed
}

func appendName(dst []byte, name string) []byte {
	dst = strconv.AppendInt(dst, int64(len(name)), 10)
	dst = append(dst, ':')
	return append(dst, name...)
}

func appendNary(dst []byte, op byte, fs []Formula, bound []string) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, op), int64(len(fs)), 10)
	dst = append(dst, ':')
	closed := true
	for _, f := range fs {
		var c bool
		dst, c = AppendKey(dst, f, bound)
		closed = closed && c
	}
	return dst, closed
}

func appendGroup(dst []byte, g Group) []byte {
	if g == nil {
		return append(dst, '*')
	}
	dst = append(dst, '{')
	for i, a := range g {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return append(dst, '}')
}
