package logic

import (
	"strconv"
	"strings"
)

// Concrete syntax (also accepted by Parse):
//
//	p, sent_m        ground facts (lowercase identifier)
//	true, false      constants
//	X, Y0            fixed-point variables (uppercase identifier, not a keyword)
//	~phi             negation
//	phi & psi        conjunction
//	phi | psi        disjunction
//	phi -> psi       implication (right associative)
//	phi <-> psi      equivalence
//	K1 phi           K_1 phi (agent index follows K)
//	S{0,2} phi       S_G phi; omit {..} for "all agents": S phi
//	E{0,2} phi       E_G phi
//	E^3{0,2} phi     E^k_G phi (expanded to k nested E)
//	D{0,2} phi       D_G phi
//	C{0,2} phi       C_G phi
//	Ee[2]{0,1} phi   E^eps_G phi with eps = 2 ticks
//	Ce[2] phi        C^eps_G phi
//	Ev phi, Cv phi   E^<> (eventual), C^<> (eventual common knowledge)
//	Et[5] phi        E^T phi with timestamp T = 5
//	Ct[5] phi        C^T phi
//	<> phi           eventually (temporal)
//	[] phi           always (temporal)
//	nu X . phi       greatest fixed point
//	mu X . phi       least fixed point
//
// Identifiers are ASCII ([A-Za-z_][A-Za-z0-9_]*), and so is the whitespace
// between tokens. The operators' spellings come from the table in ast.go.
// The k of the E^k in one formula sum to at most MaxEPower, and no formula
// nests deeper than MaxDepth levels (each E of an E^k is one).

// precedence levels, loosest first
const (
	precIff = iota
	precImplies
	precOr
	precAnd
	precUnary
)

func groupString(g Group) string {
	if g == nil {
		return ""
	}
	parts := make([]string, len(g))
	for i, a := range g {
		parts[i] = strconv.Itoa(int(a))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (f Prop) String() string { return f.Name }
func (f Truth) String() string {
	if f.Value {
		return "true"
	}
	return "false"
}
func (f Var) String() string { return f.Name }
func (f Not) String() string { return "~" + paren(f.F, precUnary) }

func joinFormulas(fs []Formula, sep string, prec int, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, c := range fs {
		parts[i] = paren(c, prec+1)
	}
	return strings.Join(parts, sep)
}

func (f And) String() string { return joinFormulas(f.Fs, " & ", precAnd, "true") }
func (f Or) String() string  { return joinFormulas(f.Fs, " | ", precOr, "false") }
func (f Implies) String() string {
	return paren(f.Ant, precImplies+1) + " -> " + paren(f.Cons, precImplies)
}
func (f Iff) String() string {
	return paren(f.L, precIff+1) + " <-> " + paren(f.R, precIff+1)
}
func (f Modal) String() string {
	op := &ops[f.Op]
	var n, g string
	switch op.param {
	case paramAgent:
		n = strconv.Itoa(f.N)
	case paramBracket:
		n = "[" + strconv.Itoa(f.N) + "]"
	}
	if op.group {
		g = groupString(f.G)
	}
	return op.spell + n + g + " " + paren(f.F, precUnary)
}
func (f Nu) String() string { return "nu " + f.Var + " . " + f.Body.String() }
func (f Mu) String() string { return "mu " + f.Var + " . " + f.Body.String() }

// precOf returns the precedence of the top-level connective of f.
func precOf(f Formula) int {
	switch f.(type) {
	case Iff:
		return precIff
	case Implies:
		return precImplies
	case Or:
		return precOr
	case And:
		return precAnd
	case Nu, Mu:
		return precIff // binders extend as far right as possible
	default:
		return precUnary
	}
}

// paren renders f, adding parentheses if its top-level connective binds
// looser than the context requires.
func paren(f Formula, context int) string {
	if precOf(f) < context {
		return "(" + f.String() + ")"
	}
	return f.String()
}
