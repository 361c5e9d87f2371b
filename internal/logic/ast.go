// Package logic defines the epistemic language of Halpern & Moses,
// "Knowledge and Common Knowledge in a Distributed Environment".
//
// The language extends propositional logic with one node shape, Modal: an
// operator over an agent or a group applied to φ. Its Op is one of
//
//	K_i                 individual knowledge (N is the agent)
//	S_G, E_G, D_G, C_G  someone, everyone, distributed, common knowledge
//	E^ε_G, C^ε_G        Section 11, N = ε ticks
//	E^⋄_G, C^⋄_G        Section 11, eventual
//	E^T_G, C^T_G        Section 12, N = the timestamp T
//	◇, □                linear time (footnote 7)
//
// Each C variant is the greatest fixed point of X ≡ E^x_G(φ ∧ X); E^k_G is
// k nested E_G nodes. The fixed-point operators ν and μ of Appendix A bind
// variables in their bodies.
//
// Formulas are immutable trees. Evaluation lives in the kripke, runs and
// fixpoint packages; this package provides construction, printing,
// parsing, structural equality and keys, substitution, and the positivity
// check that the fixed-point semantics requires. One operator table gives
// each Op its spelling, key prefix and parameter, and Parse, String and
// AppendKey all read it.
package logic

import "slices"

// Agent identifies a processor/agent by index (0-based).
type Agent int

// Group is a set of agents. A nil Group denotes "all agents in the system";
// the evaluator resolves it against the model. Groups are kept sorted and
// deduplicated by NewGroup.
type Group []Agent

// NewGroup returns a sorted, deduplicated group.
func NewGroup(agents ...Agent) Group {
	g := make(Group, 0, len(agents))
	g = append(g, agents...)
	slices.Sort(g)
	return slices.Compact(g)
}

// Contains reports whether the group explicitly contains a. It returns true
// for the nil ("all agents") group.
func (g Group) Contains(a Agent) bool {
	if g == nil {
		return true
	}
	for _, b := range g {
		if b == a {
			return true
		}
	}
	return false
}

// Equal reports whether two groups denote the same agent set, treating nil
// as distinct from any explicit group.
func (g Group) Equal(h Group) bool {
	if (g == nil) != (h == nil) {
		return false
	}
	if len(g) != len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// Formula is a node in the abstract syntax tree of the epistemic language.
type Formula interface {
	// String renders the formula in the concrete syntax accepted by Parse.
	String() string
	isFormula()
}

// Prop is a ground fact about the state of the system (Section 6): its truth
// at a point is given directly by the assignment π, with no reference to
// knowledge.
type Prop struct {
	Name string
}

// Truth is a propositional constant: true or false.
type Truth struct {
	Value bool
}

// Var is a propositional variable bound by a fixed-point operator (App. A).
type Var struct {
	Name string
}

// Not is negation.
type Not struct {
	F Formula
}

// And is n-ary conjunction. An empty conjunction is true.
type And struct {
	Fs []Formula
}

// Or is n-ary disjunction. An empty disjunction is false.
type Or struct {
	Fs []Formula
}

// Implies is material implication (the paper's ⊃).
type Implies struct {
	Ant, Cons Formula
}

// Iff is material equivalence.
type Iff struct {
	L, R Formula
}

// Modal is the operator Op over an agent or a group applied to F. N is the
// operator's single integer: the agent of K, the ε of E^ε/C^ε or the T of
// E^T/C^T, and 0 for every other Op. G is the group of a group operator
// (nil for "all agents") and nil for K, ◇ and □. Build nodes with the
// constructors below, which keep the unused fields zero.
type Modal struct {
	Op Op
	N  int
	G  Group
	F  Formula
}

// Op names the operator of a Modal node.
type Op uint8

// The operators, in the paper's notation. The group operators take an
// optional group; the run-based ones from OpEveryEps on need a model with
// run/time structure (see Op.Temporal).
const (
	OpKnow       Op = iota // K_i φ: agent i knows φ
	OpSomeone              // S_G φ: some member of G knows φ
	OpEveryone             // E_G φ: every member of G knows φ
	OpDist                 // D_G φ: φ is distributed knowledge in G
	OpCommon               // C_G φ: the gfp of X ≡ E_G(φ ∧ X)
	OpEveryEps             // E^ε_G φ (§11): all of G know φ within an ε-interval around now
	OpCommonEps            // C^ε_G φ: the gfp of X ≡ E^ε_G(φ ∧ X)
	OpEveryEv              // E^⋄_G φ (§11): all of G know φ at some point of the run
	OpCommonEv             // C^⋄_G φ: the gfp of X ≡ E^⋄_G(φ ∧ X)
	OpEveryTime            // E^T_G φ (§12): each member knows φ when its clock reads T
	OpCommonTime           // C^T_G φ: the gfp of X ≡ E^T_G(φ ∧ X)
	OpEventually           // ◇φ: φ holds now or later in the run (footnote 7)
	OpAlways               // □φ: φ holds now and at every later point of the run
)

// param says what a Modal node's N is and how it is written.
type param uint8

const (
	paramNone    param = iota // no integer: N is 0
	paramAgent                // the agent, written right after the operator: K3
	paramBracket              // ε or T, written in brackets: Ee[2], Ct[5]
)

// opInfo is one row of the operator table that Parse, String and AppendKey
// read: how the operator is spelled, its structural-key prefix, what its
// integer is, and whether it takes a group.
type opInfo struct {
	spell string
	key   string
	param param
	group bool
}

var ops = [...]opInfo{
	OpKnow:       {"K", "K", paramAgent, false},
	OpSomeone:    {"S", "S", paramNone, true},
	OpEveryone:   {"E", "E", paramNone, true},
	OpDist:       {"D", "D", paramNone, true},
	OpCommon:     {"C", "C", paramNone, true},
	OpEveryEps:   {"Ee", "Ee", paramBracket, true},
	OpCommonEps:  {"Ce", "Ce", paramBracket, true},
	OpEveryEv:    {"Ev", "Ev", paramNone, true},
	OpCommonEv:   {"Cv", "Cv", paramNone, true},
	OpEveryTime:  {"Et", "Et", paramBracket, true},
	OpCommonTime: {"Ct", "Ct", paramBracket, true},
	OpEventually: {"<>", "F", paramNone, false},
	OpAlways:     {"[]", "G", paramNone, false},
}

// Temporal reports whether op is one of the run-based operators of
// Sections 11–12 (E^ε, C^ε, E^⋄, C^⋄, E^T, C^T, ◇, □), which only a model
// with run/time structure can evaluate.
func (op Op) Temporal() bool { return op >= OpEveryEps }

// Grouped reports whether op ranges over a group of agents.
func (op Op) Grouped() bool { return ops[op].group }

// Nu is νX.φ: the greatest fixed point of φ viewed as a function of X
// (Appendix A). All free occurrences of X in φ must be positive.
type Nu struct {
	Var  string
	Body Formula
}

// Mu is μX.φ: the least fixed point of φ viewed as a function of X.
type Mu struct {
	Var  string
	Body Formula
}

func (Prop) isFormula()    {}
func (Truth) isFormula()   {}
func (Var) isFormula()     {}
func (Not) isFormula()     {}
func (And) isFormula()     {}
func (Or) isFormula()      {}
func (Implies) isFormula() {}
func (Iff) isFormula()     {}
func (Modal) isFormula()   {}
func (Nu) isFormula()      {}
func (Mu) isFormula()      {}

// Convenience constructors. These make test and example code read close to
// the paper's notation.

// P returns the ground fact with the given name.
func P(name string) Formula { return Prop{Name: name} }

// True and False are the propositional constants.
var (
	True  Formula = Truth{Value: true}
	False Formula = Truth{Value: false}
)

// X returns the fixed-point variable with the given name.
func X(name string) Formula { return Var{Name: name} }

// Neg returns ¬φ.
func Neg(f Formula) Formula { return Not{F: f} }

// Conj returns the conjunction of fs, flattening nested conjunctions so
// that And is always in n-ary normal form.
func Conj(fs ...Formula) Formula {
	flat := make([]Formula, 0, len(fs))
	for _, f := range fs {
		if a, ok := f.(And); ok {
			flat = append(flat, a.Fs...)
		} else {
			flat = append(flat, f)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return And{Fs: flat}
}

// Disj returns the disjunction of fs, flattening nested disjunctions so
// that Or is always in n-ary normal form.
func Disj(fs ...Formula) Formula {
	flat := make([]Formula, 0, len(fs))
	for _, f := range fs {
		if o, ok := f.(Or); ok {
			flat = append(flat, o.Fs...)
		} else {
			flat = append(flat, f)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Or{Fs: flat}
}

// Imp returns ant ⊃ cons.
func Imp(ant, cons Formula) Formula { return Implies{Ant: ant, Cons: cons} }

// Equiv returns l ≡ r.
func Equiv(l, r Formula) Formula { return Iff{L: l, R: r} }

// K returns K_i φ.
func K(i Agent, f Formula) Formula { return Modal{Op: OpKnow, N: int(i), F: f} }

// S returns S_G φ.
func S(g Group, f Formula) Formula { return Modal{Op: OpSomeone, G: g, F: f} }

// E returns E_G φ.
func E(g Group, f Formula) Formula { return Modal{Op: OpEveryone, G: g, F: f} }

// EK returns E^k_G φ as k nested E_G operators. EK(g, 0, φ) is φ itself.
func EK(g Group, k int, f Formula) Formula {
	for ; k > 0; k-- {
		f = E(g, f)
	}
	return f
}

// D returns D_G φ.
func D(g Group, f Formula) Formula { return Modal{Op: OpDist, G: g, F: f} }

// C returns C_G φ.
func C(g Group, f Formula) Formula { return Modal{Op: OpCommon, G: g, F: f} }

// Eeps returns E^ε_G φ.
func Eeps(g Group, eps int, f Formula) Formula { return Modal{Op: OpEveryEps, N: eps, G: g, F: f} }

// Ceps returns C^ε_G φ.
func Ceps(g Group, eps int, f Formula) Formula { return Modal{Op: OpCommonEps, N: eps, G: g, F: f} }

// Eev returns E^⋄_G φ.
func Eev(g Group, f Formula) Formula { return Modal{Op: OpEveryEv, G: g, F: f} }

// Cev returns C^⋄_G φ.
func Cev(g Group, f Formula) Formula { return Modal{Op: OpCommonEv, G: g, F: f} }

// Et returns E^T_G φ.
func Et(g Group, ts int, f Formula) Formula { return Modal{Op: OpEveryTime, N: ts, G: g, F: f} }

// Ct returns C^T_G φ.
func Ct(g Group, ts int, f Formula) Formula { return Modal{Op: OpCommonTime, N: ts, G: g, F: f} }

// Ev returns ◇φ.
func Ev(f Formula) Formula { return Modal{Op: OpEventually, F: f} }

// Alw returns □φ.
func Alw(f Formula) Formula { return Modal{Op: OpAlways, F: f} }

// GFP returns νX.body.
func GFP(x string, body Formula) Formula { return Nu{Var: x, Body: body} }

// LFP returns μX.body.
func LFP(x string, body Formula) Formula { return Mu{Var: x, Body: body} }
