package kripke

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// ErrTemporal is returned when a formula uses the run-based operators of
// Sections 11–12 (E^ε, E^⋄, E^T, ◇, □ and the corresponding common
// knowledge variants) on a model without temporal structure.
var ErrTemporal = errors.New("kripke: temporal operator requires a model with run/time structure")

// temporalCommonBase maps C^ε, C^⋄ and C^T to the E^x whose greatest fixed
// point each is (§11–12): C^x_G φ = νX.E^x_G(φ ∧ X). The evaluator computes
// them through its own fixpoint loop, so temporal hooks supply only E^x.
var temporalCommonBase = map[logic.Op]logic.Op{
	logic.OpCommonEps:  logic.OpEveryEps,
	logic.OpCommonEv:   logic.OpEveryEv,
	logic.OpCommonTime: logic.OpEveryTime,
}

// The variables of that fixed point start with '$', which the parser never
// produces, so they cannot capture a variable of the user's formula.
const (
	temporalCommonVar = "$X"
	temporalCommonPhi = "$Phi"
)

// temporalCommonArg is Φ ∧ X, the operand of E^x in that fixed point.
var temporalCommonArg logic.Formula = logic.And{Fs: []logic.Formula{
	logic.Var{Name: temporalCommonPhi}, logic.Var{Name: temporalCommonVar},
}}

// Env binds fixed-point variables to world sets during evaluation. The
// evaluator reads the bound sets without copying; callers must not mutate
// them while an evaluation is in flight.
type Env map[string]*bitset.Set

// binding is the evaluator's internal environment: a linked chain of
// variable bindings. Pushing a fixed-point binder is a single node, and
// lookup walks outward so inner binders shadow outer ones — the zero-copy
// replacement for cloning an Env map per fixpoint iteration.
type binding struct {
	name string
	set  *bitset.Set
	prev *binding
}

func (b *binding) lookup(name string) *bitset.Set {
	for ; b != nil; b = b.prev {
		if b.name == name {
			return b.set
		}
	}
	return nil
}

// evaluator is the reusable evaluation state pooled on each model: a
// freelist of scratch world sets, the kernel scratch, a memo table of
// closed-subformula denotations keyed by structural key (logic.AppendKey),
// and the key arena those keys are built in. A steady-state Eval allocates
// almost nothing: sets are recycled through the freelist and keys through
// the arena.
type evaluator struct {
	m *Model
	t *derived

	ks    kernelScratch
	free  []*bitset.Set
	arena []byte

	memo    map[string]*bitset.Set
	retired []*bitset.Set // memo values owned by the evaluator, recycled on reset

	// shared, when non-nil, is the closed-subformula memo of a Quotiented
	// view (quotient.go). Shared hits behave like local memo hits (owned =
	// false); computed closed denotations are published instead of
	// retired, transferring their ownership to the memo so no evaluator
	// ever recycles a set another may be reading.
	shared *sharedMemo

	// Closed-subformula lookups of this evaluation: hits in the local or
	// shared memo, and misses that ran the subformula's kernel. Folded into
	// the shared memo's counters by putEvaluator.
	memoHits, memoMisses int64

	// Worklist-fixpoint scratch (worklist.go): the resolved partition list
	// of the current body and the per-partition class stamps, which persist
	// across the whole chaotic iteration so each class is removed once.
	wparts  []*partition
	wstamps []kernelScratch

	tsets []*bitset.Set // the input sets of the current temporal hook call

	agents []int // arena of the explicit groups being evaluated (resolveAgents)

	empty *bitset.Set // canonical shared ∅ (never mutated)
	full  *bitset.Set // canonical shared universe (never mutated)

	fixIters int // iteration count of the most recent outermost fixpoint
}

func (m *Model) getEvaluator() *evaluator {
	if ev := m.evalFree.get(); ev != nil {
		ev.t = m.tables()
		return ev
	}
	return &evaluator{
		m:    m,
		t:    m.tables(),
		memo: make(map[string]*bitset.Set),
	}
}

func (m *Model) putEvaluator(ev *evaluator) {
	if ev.shared != nil {
		ev.shared.hits.Add(ev.memoHits)
		ev.shared.misses.Add(ev.memoMisses)
	}
	ev.memoHits, ev.memoMisses = 0, 0
	ev.free = append(ev.free, ev.retired...)
	ev.retired = ev.retired[:0]
	clear(ev.memo)
	ev.arena = ev.arena[:0]
	ev.shared = nil
	m.evalFree.put(ev)
}

// keyScratch exposes the evaluator's key arena tail for group-cache keys.
func (ev *evaluator) keyScratch() []byte {
	return ev.arena[len(ev.arena):]
}

// alloc hands out a scratch set in an unspecified state; the caller must
// Fill, Clear or Copy before reading it.
func (ev *evaluator) alloc() *bitset.Set {
	if n := len(ev.free); n > 0 {
		s := ev.free[n-1]
		ev.free = ev.free[:n-1]
		return s
	}
	return bitset.New(ev.m.numWorlds)
}

func (ev *evaluator) release(s *bitset.Set) {
	ev.free = append(ev.free, s)
}

// releaseIf returns owned sets to the freelist; shared sets (valuation
// columns, memo entries, environment bindings, the canonical constants)
// are left alone.
func (ev *evaluator) releaseIf(s *bitset.Set, owned bool) {
	if owned {
		ev.free = append(ev.free, s)
	}
}

// ensureOwned returns s itself when owned, or a scratch copy otherwise, so
// the caller may mutate the result in place.
func (ev *evaluator) ensureOwned(s *bitset.Set, owned bool) *bitset.Set {
	if owned {
		return s
	}
	d := ev.alloc()
	d.Copy(s)
	return d
}

func (ev *evaluator) emptySet() *bitset.Set {
	if ev.empty == nil {
		ev.empty = bitset.New(ev.m.numWorlds)
	}
	return ev.empty
}

func (ev *evaluator) fullSet() *bitset.Set {
	if ev.full == nil {
		ev.full = bitset.NewFull(ev.m.numWorlds)
	}
	return ev.full
}

// resolveGroup expands a (possibly nil) group into explicit agent indices,
// validating them against the model.
func (m *Model) resolveGroup(g logic.Group) ([]int, error) {
	if g == nil {
		all := make([]int, m.numAgents)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	return m.appendGroup(make([]int, 0, len(g)), g)
}

// appendGroup appends the agents of the explicit group g to dst,
// validating them against the model. On an error it returns dst with the
// agents before the bad one appended.
func (m *Model) appendGroup(dst []int, g logic.Group) ([]int, error) {
	for _, a := range g {
		if int(a) < 0 || int(a) >= m.numAgents {
			return dst, fmt.Errorf("kripke: agent %d out of range [0,%d)", a, m.numAgents)
		}
		dst = append(dst, int(a))
	}
	return dst, nil
}

// resolveAgents is resolveGroup without allocating: the full agent set
// resolves to the index slice prebuilt with the derived tables, and an
// explicit group is appended to the evaluator's agent arena. The caller
// truncates ev.agents back to its length before the call once it is done
// with the slice; a nested grouped operator resolved meanwhile appends
// past it (or into a regrown arena), so it cannot clobber it.
func (ev *evaluator) resolveAgents(g logic.Group) ([]int, error) {
	if g == nil {
		return ev.t.allAgents, nil
	}
	start := len(ev.agents)
	var err error
	if ev.agents, err = ev.m.appendGroup(ev.agents, g); err != nil {
		return nil, err
	}
	return ev.agents[start:len(ev.agents):len(ev.agents)], nil
}

// Eval returns the set of worlds at which f holds. The formula must be
// closed (no free fixed-point variables).
func (m *Model) Eval(f logic.Formula) (*bitset.Set, error) {
	return m.EvalEnv(f, nil)
}

// EvalEnv evaluates f under an environment binding free fixed-point
// variables to world sets. The returned set is owned by the caller.
func (m *Model) EvalEnv(f logic.Formula, env Env) (*bitset.Set, error) {
	var chain *binding
	for name, set := range env {
		chain = &binding{name: name, set: set, prev: chain}
	}
	s, owned, err := m.evalWith(f, chain, nil)
	if err != nil {
		return nil, err
	}
	if owned {
		return s, nil // a scratch set handed out of the pool
	}
	return s.Clone(), nil
}

// evalWith evaluates f on a pooled evaluator that shares the memo sm (nil
// for an evaluation-local memo only). An owned result has left the pool
// and belongs to the caller; any other result is immutable shared state —
// a published memo entry, a fact column, a canonical constant or an env
// binding — that the caller may read but must not modify.
func (m *Model) evalWith(f logic.Formula, env *binding, sm *sharedMemo) (*bitset.Set, bool, error) {
	ev := m.getEvaluator()
	ev.shared = sm
	defer m.putEvaluator(ev)
	s, owned, err := ev.eval(f, env)
	if err != nil {
		return nil, false, err
	}
	if !owned {
		// A memoized top-level result is owned by the evaluator as the
		// most recently retired set; un-retire it instead of cloning —
		// the memo table is cleared before the evaluator is pooled, so
		// nothing else will alias it.
		if n := len(ev.retired); n > 0 && ev.retired[n-1] == s {
			ev.retired = ev.retired[:n-1]
			owned = true
		}
	}
	return s, owned, nil
}

// eval computes the denotation of f. The returned flag reports ownership:
// owned sets are scratch the caller may mutate or release; shared sets
// (valuation columns, memo hits, bindings, constants) must be treated as
// immutable.
func (ev *evaluator) eval(f logic.Formula, env *binding) (*bitset.Set, bool, error) {
	// Atoms: no memoization needed, their lookups are already O(1).
	switch n := f.(type) {
	case logic.Prop:
		if s := ev.m.factShared(n.Name); s != nil {
			return s, false, nil
		}
		return ev.emptySet(), false, nil

	case logic.Truth:
		if n.Value {
			return ev.fullSet(), false, nil
		}
		return ev.emptySet(), false, nil

	case logic.Var:
		if s := env.lookup(n.Name); s != nil {
			return s, false, nil
		}
		return nil, false, fmt.Errorf("kripke: unbound fixed-point variable %s", n.Name)
	}

	// Modal and fixed-point nodes: memoize closed subformulas by
	// structural key within this evaluation, so shared subterms — and in
	// particular closed subformulas of fixed-point bodies, which are
	// revisited once per iteration — run their kernels exactly once.
	// Propositional connectives are not worth the key: recomputing them is
	// a handful of word operations.
	switch f.(type) {
	case logic.Modal, logic.Nu, logic.Mu:
		start := len(ev.arena)
		var closed bool
		ev.arena, closed = logic.AppendKey(ev.arena, f, nil)
		if closed {
			if s, ok := ev.memo[string(ev.arena[start:])]; ok {
				ev.memoHits++
				ev.arena = ev.arena[:start]
				return s, false, nil
			}
			if ev.shared != nil {
				if s := ev.shared.get(ev.arena[start:]); s != nil {
					ev.memoHits++
					ev.memo[string(ev.arena[start:])] = s
					ev.arena = ev.arena[:start]
					return s, false, nil
				}
			}
			ev.memoMisses++
		}
		s, owned, err := ev.evalCompound(f, env)
		if err == nil && closed {
			if ev.shared != nil {
				// Publish to the shared memo. A published set's ownership
				// transfers to the memo (it is immutable from here on, and
				// never recycled); a losing duplicate is reclaimed and the
				// winner adopted, so all evaluators alias one copy. A set
				// too large for a bounded memo stays the evaluator's.
				if w := ev.shared.put(ev.arena[start:], s); w != nil {
					if w != s {
						ev.releaseIf(s, owned)
						s = w
					}
					owned = false
				}
			}
			ev.memo[string(ev.arena[start:])] = s
			if owned {
				ev.retired = append(ev.retired, s)
				owned = false
			}
		}
		ev.arena = ev.arena[:start]
		return s, owned, err
	}
	return ev.evalCompound(f, env)
}

func (ev *evaluator) evalCompound(f logic.Formula, env *binding) (*bitset.Set, bool, error) {
	switch n := f.(type) {
	case logic.Not:
		s, owned, err := ev.eval(n.F, env)
		if err != nil {
			return nil, false, err
		}
		s = ev.ensureOwned(s, owned)
		s.Not()
		return s, true, nil

	case logic.And:
		var acc *bitset.Set
		for _, c := range n.Fs {
			s, owned, err := ev.eval(c, env)
			if err != nil {
				if acc != nil {
					ev.release(acc)
				}
				return nil, false, err
			}
			if acc == nil {
				acc = ev.ensureOwned(s, owned)
				continue
			}
			acc.And(s)
			ev.releaseIf(s, owned)
		}
		if acc == nil {
			return ev.fullSet(), false, nil // empty conjunction is true
		}
		return acc, true, nil

	case logic.Or:
		var acc *bitset.Set
		for _, c := range n.Fs {
			s, owned, err := ev.eval(c, env)
			if err != nil {
				if acc != nil {
					ev.release(acc)
				}
				return nil, false, err
			}
			if acc == nil {
				acc = ev.ensureOwned(s, owned)
				continue
			}
			acc.Or(s)
			ev.releaseIf(s, owned)
		}
		if acc == nil {
			return ev.emptySet(), false, nil // empty disjunction is false
		}
		return acc, true, nil

	case logic.Implies:
		ant, owned, err := ev.eval(n.Ant, env)
		if err != nil {
			return nil, false, err
		}
		ant = ev.ensureOwned(ant, owned)
		cons, cOwned, err := ev.eval(n.Cons, env)
		if err != nil {
			ev.release(ant)
			return nil, false, err
		}
		ant.Not()
		ant.Or(cons)
		ev.releaseIf(cons, cOwned)
		return ant, true, nil

	case logic.Iff:
		l, owned, err := ev.eval(n.L, env)
		if err != nil {
			return nil, false, err
		}
		l = ev.ensureOwned(l, owned)
		r, rOwned, err := ev.eval(n.R, env)
		if err != nil {
			ev.release(l)
			return nil, false, err
		}
		// l ≡ r is ¬(l ⊕ r).
		l.Xor(r)
		l.Not()
		ev.releaseIf(r, rOwned)
		return l, true, nil

	case logic.Modal:
		mark := len(ev.agents)
		s, owned, err := ev.evalModal(n, env)
		ev.agents = ev.agents[:mark]
		return s, owned, err

	case logic.Nu:
		return ev.fixpoint(n.Var, n.Body, env, true)

	case logic.Mu:
		return ev.fixpoint(n.Var, n.Body, env, false)

	default:
		return nil, false, fmt.Errorf("kripke: unsupported formula %T", f)
	}
}

// evalModal evaluates a modal operator. Its explicit group, if any, is
// resolved into the agent arena, which the caller truncates.
func (ev *evaluator) evalModal(n logic.Modal, env *binding) (*bitset.Set, bool, error) {
	if n.Op.Temporal() && ev.m.Temporal == nil {
		return nil, false, fmt.Errorf("%w: %s", ErrTemporal, n)
	}
	var agents []int
	if n.Op == logic.OpKnow {
		if n.N < 0 || n.N >= ev.m.numAgents {
			return nil, false, fmt.Errorf("kripke: agent %d out of range [0,%d)", n.N, ev.m.numAgents)
		}
	} else if n.Op.Grouped() {
		var err error
		if agents, err = ev.resolveAgents(n.G); err != nil {
			return nil, false, err
		}
	}
	phi, owned, err := ev.eval(n.F, env)
	if err != nil {
		return nil, false, err
	}
	if every, ok := temporalCommonBase[n.Op]; ok {
		// C^x_G φ is νX.E^x_G(Φ ∧ X), with Φ bound to φ's denotation
		// so an open φ is not evaluated again on every step.
		body := logic.Modal{Op: every, N: n.N, G: n.G, F: temporalCommonArg}
		bound := &binding{name: temporalCommonPhi, set: phi, prev: env}
		s, sOwned, err := ev.fixpoint(temporalCommonVar, body, bound, true)
		ev.releaseIf(phi, owned)
		return s, sOwned, err
	}
	if len(agents) == 0 && (n.Op == logic.OpDist || n.Op == logic.OpCommon) {
		return phi, owned, nil // D_∅ φ and C_∅ φ are φ
	}
	dst := ev.alloc()
	switch n.Op {
	case logic.OpKnow:
		ev.m.knowAgentInto(ev.t, n.N, dst, phi, &ev.ks)
	case logic.OpSomeone:
		dst.Clear()
		tmp := ev.alloc()
		for _, a := range agents {
			ev.m.knowAgentInto(ev.t, a, tmp, phi, &ev.ks)
			dst.Or(tmp)
		}
		ev.release(tmp)
	case logic.OpEveryone:
		ev.m.everyoneInto(ev.t, agents, dst, phi, &ev.ks)
	case logic.OpDist:
		ev.m.jointPartition(ev.t, agents, ev.keyScratch()).knowInto(dst, phi, &ev.ks)
	case logic.OpCommon:
		ev.m.reachPartition(ev.t, agents, ev.keyScratch()).knowInto(dst, phi, &ev.ks)
	case logic.OpEventually, logic.OpAlways:
		ev.tsets = append(ev.tsets[:0], phi)
		ev.m.Temporal.EvalTemporal(dst, n.Op, n.N, nil, ev.tsets)
	default: // E^ε, E^⋄, E^T: the hook combines each member's K_a φ
		ev.tsets = ev.tsets[:0]
		for _, a := range agents {
			k := ev.alloc()
			ev.m.knowAgentInto(ev.t, a, k, phi, &ev.ks)
			ev.tsets = append(ev.tsets, k)
		}
		ev.m.Temporal.EvalTemporal(dst, n.Op, n.N, agents, ev.tsets)
		for _, k := range ev.tsets {
			ev.release(k)
		}
	}
	ev.releaseIf(phi, owned)
	return dst, true, nil
}

// fixpoint computes νX.body (greatest = true) or μX.body (least). Greatest
// fixed points whose body has the support shape op_G(φ ∧ X) — the shape of
// the C_G characterization — take the incremental worklist path of
// worklist.go, which propagates only the worlds that left the approximant
// instead of re-evaluating the whole body per step. Everything else falls
// back to the naive Knaster–Tarski iteration. Both paths report the same
// iteration count in ev.fixIters.
func (ev *evaluator) fixpoint(name string, body logic.Formula, env *binding, greatest bool) (*bitset.Set, bool, error) {
	if p := logic.PolarityOf(body, name); p == logic.PolarityNegative || p == logic.PolarityMixed {
		return nil, false, fmt.Errorf("kripke: %s occurs non-positively in fixed point body %s", name, body)
	}
	if greatest {
		if mod, phi, ok := worklistShape(name, body); ok {
			// φ must be evaluated before resolving the partition list:
			// a nested supported ν inside φ re-enters worklistParts and
			// would clobber the shared ev.wparts scratch.
			phiSet, owned, err := ev.eval(phi, env)
			if err != nil {
				return nil, false, err
			}
			if parts, ok := ev.worklistParts(mod); ok {
				res := ev.fixpointWorklist(parts, phiSet)
				ev.releaseIf(phiSet, owned)
				return res, true, nil
			}
			ev.releaseIf(phiSet, owned)
		}
	}
	return ev.fixpointNaive(name, body, env, greatest)
}

// fixpointNaive is the standard Knaster–Tarski iteration of Appendix A. On
// a finite model the iteration converges in at most NumWorlds+1 steps for
// monotone bodies; non-monotone bodies (which WellFormed rejects) would
// oscillate, so the iteration is capped and an error returned if no fixed
// point is reached.
//
// The iteration runs in place: the binding's set is a single scratch
// buffer the next approximant is copied into, and closed subformulas of
// the body hit the evaluator memo, so each step costs one body evaluation
// over the open part of the formula and no allocation.
func (ev *evaluator) fixpointNaive(name string, body logic.Formula, env *binding, greatest bool) (*bitset.Set, bool, error) {
	cur := ev.alloc()
	if greatest {
		cur.Fill()
	} else {
		cur.Clear()
	}
	b := &binding{name: name, set: cur, prev: env}
	for iter := 0; iter <= ev.m.numWorlds+1; iter++ {
		next, owned, err := ev.eval(body, b)
		if err != nil {
			ev.release(cur)
			return nil, false, err
		}
		if next.Equal(cur) {
			ev.releaseIf(next, owned)
			ev.fixIters = iter
			return cur, true, nil
		}
		cur.Copy(next)
		ev.releaseIf(next, owned)
	}
	ev.release(cur)
	return nil, false, fmt.Errorf("kripke: fixed point for %s did not converge", name)
}

// FixpointIterations computes νX.body and additionally reports the number
// of iterations needed to converge (for the Appendix A experiments).
func (m *Model) FixpointIterations(name string, body logic.Formula) (*bitset.Set, int, error) {
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	s, owned, err := ev.fixpoint(name, body, nil, true)
	if err != nil {
		return nil, 0, err
	}
	if !owned {
		s = s.Clone()
	}
	return s, ev.fixIters, nil
}

// Holds reports whether f holds at world w.
func (m *Model) Holds(f logic.Formula, w int) (bool, error) {
	s, err := m.Eval(f)
	if err != nil {
		return false, err
	}
	return s.Contains(w), nil
}

// Valid reports whether f holds at every world of the model (the paper's
// "valid in the system").
func (m *Model) Valid(f logic.Formula) (bool, error) {
	s, err := m.Eval(f)
	if err != nil {
		return false, err
	}
	return s.IsFull(), nil
}

// Announce returns the model that results from a truthful public
// announcement of f: the submodel restricted to the worlds where f holds.
// This is the update performed by the father's announcement in the muddy
// children puzzle (Section 2) and by each round of simultaneous answers.
func (m *Model) Announce(f logic.Formula) (*Model, error) {
	s, err := m.Eval(f)
	if err != nil {
		return nil, err
	}
	return m.Restrict(s), nil
}

// CommonKnowledgeByIteration evaluates C_G φ via the greatest fixed point
// νX.E_G(φ ∧ X) rather than via reachability components. Used by the
// Appendix A experiments to confirm the two characterizations agree, and by
// the ablation benchmarks.
func (m *Model) CommonKnowledgeByIteration(g logic.Group, f logic.Formula) (*bitset.Set, int, error) {
	body := logic.E(g, logic.Conj(f, logic.X("__ck")))
	return m.FixpointIterations("__ck", body)
}

// EKPrefix returns the sets E^1_G φ, E^2_G φ, ..., E^k_G φ, computed
// incrementally (each level applies one "everyone knows" step to the
// previous level's world set).
func (m *Model) EKPrefix(g logic.Group, f logic.Formula, k int) ([]*bitset.Set, error) {
	agents, err := m.resolveGroup(g)
	if err != nil {
		return nil, err
	}
	cur, err := m.Eval(f)
	if err != nil {
		return nil, err
	}
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := make([]*bitset.Set, 0, k)
	for i := 1; i <= k; i++ {
		next := bitset.New(m.numWorlds) // escapes to the caller
		m.everyoneInto(ev.t, agents, next, cur, &ev.ks)
		out = append(out, next)
		cur = next
	}
	return out, nil
}
