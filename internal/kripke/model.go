// Package kripke implements finite epistemic Kripke models and the model
// checking of the knowledge hierarchy of Halpern & Moses Section 3.
//
// A model is a finite set of worlds, one indistinguishability partition per
// agent, and a valuation of ground facts. This is exactly the graph of
// Section 6 of the paper: worlds are nodes, and two worlds share an edge
// labeled p_i iff agent i has the same view in both. Knowledge operators are
// computed from the partitions:
//
//   - K_i φ holds at w iff φ holds throughout agent i's partition class of w.
//   - D_G φ uses the common refinement (joint views) of the G partitions.
//   - C_G φ holds at w iff φ holds throughout the G-reachability component
//     of w — the connected component of w under the union of the G
//     partitions — which the package computes with a disjoint-set union.
//
// The package also provides public-announcement updates (the father's
// announcement in the muddy children puzzle is Announce) and validity
// checking used by the axiom checkers in axioms.go.
//
// # Construction architecture: columns and class ids
//
// Construction is columnar. Each agent's indistinguishability relation has
// one form, the one every reader sees: a dense class-id vector, one id per
// world. The Builder's SetPartition and PartitionFromKeys install it in one
// shot, and Restrict, RefineAgent and Minimize's quotient write it directly.
// Indistinguishable alone accumulates pairwise edges, in a disjoint-set
// union that is only a pending-edge accumulator: the first read of the
// relations (any evaluation, Restrict, RefineAgent, Minimize, SameClass)
// resolves the pending edges, and every agent still unset (discrete, the
// NewModel default), into class ids, once. Valuations are bitset columns,
// written word-by-word by bulk constructors. The Builder in builder.go is
// the front door for batch construction; the incremental Model methods
// (SetTrue, Indistinguishable, SetName) remain for small or exploratory
// models.
//
// Model updates reuse rather than rebuild: Restrict compacts valuation
// columns with the word-level gather kernel of the bitset package and
// renames class ids, one plain pass per agent, through a pooled scratch.
// The restricted model starts with no derived tables; the one piece of
// state an announcement chain threads through it is the Minimize block map
// (RestrictWithQuotient), so each link re-refines its quotient from the old
// blocks.
//
// # Evaluation architecture: masks and caches
//
// Formula denotations are bit sets over the worlds, and every knowledge
// operator reduces to one kernel over a partition of the worlds (the
// agent's view classes for K_i, their common refinement for D_G, the
// G-reachability components for C_G). Each partition is materialized once
// as per-class bitset masks in CSR layout (see partition.go) and the
// kernel works on whole 64-bit words: a coset partition folds φ's words
// along its XOR basis; any other finds the classes that escape φ by
// scanning only ¬φ and removes them by word-level AND-NOT of their masks.
//
// The derived tables are built lazily and cached on the model: each
// agent's partition once its class ids have answered a few K
// passes on their own (so models that answer a few queries and are
// dropped, as in an announcement chain, never pay for a table), and one
// partition per distinct agent group for D_G refinements and C_G
// reachability components (so fixed-point iteration re-uses the component
// structure instead of rebuilding a union-find per step). Every table
// lives in its own tableSlot, which readers load without a lock and whose
// lock is held only while that one table is built, so concurrent
// evaluators build each table once while builds of different tables run
// in parallel. Every table is built on the goroutine that first needs it;
// the package starts no goroutine of its own. E_G and S_G are plain
// serial loops of per-agent K passes, and so is a batch: the one level of
// evaluation concurrency is concurrent Eval and EvalBatch callers.
// Construction calls (Indistinguishable) invalidate the tables.
// Evaluation itself runs on a pooled evaluator that memoizes closed
// subformula denotations by structural key and recycles scratch sets,
// making steady-state Eval near-allocation-free. All caches are safe for
// concurrent Eval on a fully constructed model.
package kripke

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/logic"
	"repro/internal/unionfind"
)

// Model is a finite epistemic model. Create one with NewModel (or batch
// construct with a Builder), add facts and indistinguishability edges, then
// evaluate formulas with Eval. Models may be evaluated concurrently once
// fully constructed, but construction is not safe for concurrent use (nor
// concurrent with evaluation).
type Model struct {
	numWorlds int
	numAgents int

	names   []string                       // optional world names; nil if none assigned
	nameIdx atomic.Pointer[map[string]int] // lazy reverse lookup, built on first WorldByName

	// rels holds each agent's indistinguishability relation as dense class
	// ids, read through relations or tables, which resolve pending
	// Indistinguishable edges first. The derived partition tables are built
	// lazily per agent and invalidated by construction calls.
	rels []agentRel

	valuation map[string]*bitset.Set

	// quotSeed, when non-nil, is a Minimize block map of the model this one
	// was restricted from, renamed over the kept worlds. Minimize uses it
	// to re-refine incrementally (refineStable) instead of refining from
	// the trivial partition. Read-only after construction.
	quotSeed *quotientSeed

	// derived caches the partition tables. buildMu serializes only the
	// resolution of the relations, the creation of the derived-table shell
	// and that of the name index; each table inside the shell is built under
	// its own tableSlot lock.
	derived atomic.Pointer[derived]
	buildMu sync.Mutex

	// evalFree recycles evaluators (scratch sets, memo tables, kernel
	// state) across Eval calls. It is the model's own, not a sync.Pool, so
	// idle evaluators never keep a dropped model reachable (freelist.go).
	evalFree freelist[evaluator]

	// Temporal, if non-nil, supplies the run-based operators of Sections
	// 11–12 (E^ε, E^⋄, E^T, from which the evaluator builds their C
	// variants) and the linear-time ◇/□. Plain Kripke models reject those
	// operators.
	Temporal TemporalSemantics
}

// agentRel is one agent's indistinguishability relation: worlds v and w are
// indistinguishable iff ids[v] == ids[w], with ids dense in [0, n). Every
// reader sees that form. dsu is Indistinguishable's pending-edge
// accumulator, seeded from ids by the first edge after resolution that
// merges two classes (an edge inside one class changes nothing); while it is
// set, ids is nil, and so it is for an agent never set (the discrete
// relation of NewModel). resolve turns both into ids.
type agentRel struct {
	dsu *unionfind.DSU
	ids []int32
	n   int
}

// quotientSeed is a Minimize block map renamed over the kept worlds of a
// restriction. dirty records per seed block whether the restriction
// disturbed its modal environment — some world of one of its members' view
// classes was removed: Minimize narrows its compose pass to the disturbed
// region, and skips it entirely when nothing was disturbed.
type quotientSeed struct {
	ids   []int32
	n     int
	dirty []bool
}

// derived holds everything computed from the construction-time relations:
// the per-agent view partitions, plus memoized per-group partitions for the
// D_G common refinement and the C_G reachability components, each in its
// own lazily filled tableSlot.
type derived struct {
	parts     []tableSlot // per-agent view partitions
	allAgents []int       // 0..numAgents-1, the resolution of the nil group

	mu    sync.RWMutex          // guards the two maps, not the slots' tables
	reach map[string]*tableSlot // group key -> G-reachability components
	joint map[string]*tableSlot // group key -> common refinement of views
}

// tableSlot holds one derived partition table, built at most once: readers
// load p without a lock, and mu is held only while this one table is built.
type tableSlot struct {
	p  atomic.Pointer[partition]
	mu sync.Mutex

	// idsUses counts the K passes an agent's slot has answered from the
	// agent's class ids before its table was built (knowAgentInto).
	idsUses atomic.Int32
}

// get returns the slot's table, running build on first use. The build is
// double-checked under the slot's lock, so concurrent callers build the
// table once and the others wait for it; a panicking build releases the
// lock and leaves the slot empty, so the next caller builds again.
func (s *tableSlot) get(build func() *partition) *partition {
	if p := s.p.Load(); p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.p.Load(); p != nil {
		return p
	}
	p := build()
	s.p.Store(p)
	return p
}

// groupSlot returns the slot of one agent group's table in tables (t.reach
// or t.joint), adding an empty slot on first use.
func (t *derived) groupSlot(tables map[string]*tableSlot, key []byte) *tableSlot {
	t.mu.RLock()
	s := tables[string(key)]
	t.mu.RUnlock()
	if s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = tables[string(key)]; s == nil {
		s = new(tableSlot)
		tables[string(key)] = s
	}
	return s
}

// TemporalSemantics supplies the run-based operators over a model whose
// worlds carry run/time structure. The evaluator resolves the operator's
// group and evaluates its operand φ; the hook only maps sets to a set,
// written into dst (an evaluator scratch set in an unspecified state). For
// ◇ and □, in holds φ. For E^ε, E^⋄ and E^T, n is ε or T and in[i] is
// K_{agents[i]} φ. The inputs are read-only. C^ε, C^⋄ and C^T never reach
// the hook: the evaluator computes them as νX.E^x_G(φ ∧ X).
type TemporalSemantics interface {
	EvalTemporal(dst *bitset.Set, op logic.Op, n int, agents []int, in []*bitset.Set)
}

// NewModel returns a model with numWorlds worlds and numAgents agents in
// which every pair of distinct worlds is distinguishable by every agent and
// no ground facts hold.
func NewModel(numWorlds, numAgents int) *Model {
	return &Model{
		numWorlds: numWorlds,
		numAgents: numAgents,
		rels:      make([]agentRel, numAgents),
		valuation: make(map[string]*bitset.Set),
	}
}

// NumWorlds returns the number of worlds in the model.
func (m *Model) NumWorlds() int { return m.numWorlds }

// NumAgents returns the number of agents in the model.
func (m *Model) NumAgents() int { return m.numAgents }

// ensureNames allocates the name column on first use.
func (m *Model) ensureNames() {
	if m.names == nil {
		m.names = make([]string, m.numWorlds)
	}
}

// SetName assigns a name to a world (for display and lookup).
func (m *Model) SetName(w int, name string) {
	m.ensureNames()
	m.names[w] = name
	if idx := m.nameIdx.Load(); idx != nil {
		(*idx)[name] = w
	}
}

// Name returns the name of world w, or "w<index>" if unnamed.
func (m *Model) Name(w int) string {
	if w >= 0 && w < len(m.names) && m.names[w] != "" {
		return m.names[w]
	}
	return fmt.Sprintf("w%d", w)
}

// WorldByName returns the index of the world with the given name. The
// reverse index is built lazily on first lookup, so models that are
// constructed, restricted and discarded without ever resolving a name (the
// inner models of an announcement chain) skip the map entirely.
func (m *Model) WorldByName(name string) (int, bool) {
	idx := m.nameIdx.Load()
	if idx == nil {
		m.buildMu.Lock()
		if idx = m.nameIdx.Load(); idx == nil {
			mp := make(map[string]int, len(m.names))
			for w, nm := range m.names {
				if nm != "" {
					mp[nm] = w
				}
			}
			idx = &mp
			m.nameIdx.Store(idx)
		}
		m.buildMu.Unlock()
	}
	w, ok := (*idx)[name]
	return w, ok
}

// SetTrue makes the ground fact prop true at world w.
func (m *Model) SetTrue(w int, prop string) {
	s, ok := m.valuation[prop]
	if !ok {
		s = bitset.New(m.numWorlds)
		m.valuation[prop] = s
	}
	s.Add(w)
}

// SetFact sets the truth value of prop at w explicitly.
func (m *Model) SetFact(w int, prop string, value bool) {
	if value {
		m.SetTrue(w, prop)
		return
	}
	if s, ok := m.valuation[prop]; ok {
		s.Remove(w)
	}
}

// setFactSet installs a whole valuation column at once (internal bulk
// constructor used by the Builder, Restrict and RefineAgent).
func (m *Model) setFactSet(prop string, set *bitset.Set) {
	m.valuation[prop] = set
}

// factShared returns the internal world set of prop (nil if the fact is
// unknown). The evaluator reads it without copying; callers must not
// mutate it.
func (m *Model) factShared(prop string) *bitset.Set {
	return m.valuation[prop]
}

// FactSet returns the set of worlds where prop holds. Unknown facts hold
// nowhere. The returned set is a copy.
func (m *Model) FactSet(prop string) *bitset.Set {
	if s, ok := m.valuation[prop]; ok {
		return s.Clone()
	}
	return bitset.New(m.numWorlds)
}

// Facts returns the names of all ground facts with a valuation entry, in
// sorted order (so reports built from it are deterministic).
func (m *Model) Facts() []string {
	out := make([]string, 0, len(m.valuation))
	for name := range m.valuation {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Indistinguishable declares that agent a cannot distinguish worlds w1 and
// w2 (they are joined by an edge labeled p_a in the Section 6 graph). The
// relation is closed under reflexivity, symmetry and transitivity
// automatically, as required for view-based (S5) interpretations.
func (m *Model) Indistinguishable(a int, w1, w2 int) {
	r := &m.rels[a]
	switch {
	case r.ids != nil:
		// A redundant edge keeps the resolved ids (readers rely on the
		// shell's existence meaning every relation is resolved); any other
		// edge merges two classes below and so drops the shell.
		if r.ids[w1] == r.ids[w2] {
			return
		}
		r.dsu = unionfind.NewFromIDs(r.ids, r.n)
		r.ids, r.n = nil, 0
	case r.dsu == nil:
		r.dsu = unionfind.New(m.numWorlds)
	}
	if r.dsu.Union(w1, w2) {
		m.invalidateDerived()
	}
}

// invalidateDerived drops every table derived from the relations: the
// partition-table cache and the quotient seed a restriction installed, both
// of which describe the pre-mutation relations. With the cache gone, the
// next read of the relations resolves them again.
func (m *Model) invalidateDerived() {
	if m.derived.Load() != nil {
		m.derived.Store(nil)
	}
	m.quotSeed = nil
}

// setPartition installs agent a's whole view partition as dense class ids
// (the columnar counterpart of an Indistinguishable edge list). It takes
// ownership of ids.
func (m *Model) setPartition(a int, ids []int32, numClasses int) {
	m.rels[a] = agentRel{ids: ids, n: numClasses}
	m.invalidateDerived()
}

// SameClass reports whether agent a has the same view at w1 and w2.
func (m *Model) SameClass(a int, w1, w2 int) bool {
	ids := m.relations()[a].ids
	return ids[w1] == ids[w2]
}

// relations returns every agent's relation as class ids, resolving pending
// edges first. Once the derived-table shell exists the relations are
// resolved (tables resolves them before publishing it), so only a model
// no evaluation has touched takes buildMu here.
func (m *Model) relations() []agentRel {
	if m.derived.Load() == nil {
		m.buildMu.Lock()
		m.resolve()
		m.buildMu.Unlock()
	}
	return m.rels
}

// resolve turns each agent's pending Indistinguishable edges, or its unset
// (discrete) relation, into class ids, and drops the accumulator. It runs
// under buildMu; a resolved relation is left as it is.
func (m *Model) resolve() {
	var mark []int32 // CompIDsInto scratch, shared by the agents
	for a := range m.rels {
		r := &m.rels[a]
		switch {
		case r.dsu != nil:
			if mark == nil {
				mark = make([]int32, m.numWorlds)
			}
			r.ids = make([]int32, m.numWorlds)
			r.n = r.dsu.CompIDsInto(r.ids, mark)
			r.dsu = nil
		case r.ids == nil:
			r.ids = make([]int32, m.numWorlds)
			for w := range r.ids {
				r.ids[w] = int32(w)
			}
			r.n = m.numWorlds
		}
	}
}

// tables returns the derived-table shell, creating it on first use after
// resolving the relations. The per-agent partitions inside it are built
// lazily by part, so touching the shell (every getEvaluator does) costs a
// few small allocations once per construction, not a full table build.
func (m *Model) tables() *derived {
	if t := m.derived.Load(); t != nil {
		return t
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if t := m.derived.Load(); t != nil {
		return t
	}
	m.resolve()
	t := &derived{
		parts:     make([]tableSlot, m.numAgents),
		allAgents: make([]int, m.numAgents),
		reach:     make(map[string]*tableSlot),
		joint:     make(map[string]*tableSlot),
	}
	for i := range t.allAgents {
		t.allAgents[i] = i
	}
	m.derived.Store(t)
	return t
}

// part returns agent a's partition table, building it on first use. The
// loaded-table path does not construct the build closure. The table aliases
// the agent's class ids, which are never mutated in place (a later
// Indistinguishable replaces them).
func (m *Model) part(t *derived, a int) *partition {
	if p := t.parts[a].p.Load(); p != nil {
		return p
	}
	return t.parts[a].get(func() *partition { return newPartition(m.rels[a].ids, m.rels[a].n) })
}

// knowIDsUses is how many K_a passes run on agent a's class ids
// alone (andKnowIDs) before the agent's partition table is built. On the
// muddy children view partitions of 4096 and 32768 worlds (the cube's
// coset tables, and the generic tables of the cube less one world) a table
// build costs as much as 2 to 18 passes over the ids, and the table's
// kernel is faster than the ids pass only for some φ. So a model that
// answers a few K_a queries and is then dropped — an announcement round
// asks each child's K twice — never builds the table, and a model queried
// again and again builds it after these few passes.
const knowIDsUses = 8

// knowAgentInto writes K_a(phi) into dst (overwritten). dst and phi must
// not alias.
func (m *Model) knowAgentInto(t *derived, a int, dst, phi *bitset.Set, ks *kernelScratch) {
	dst.Copy(phi) // K_a φ ⊆ φ
	m.andKnowAgent(t, a, dst, phi, ks)
}

// andKnowAgent intersects dst in place with K_a(phi), from agent a's table
// when it exists, else from its class ids while they have answered fewer
// than knowIDsUses passes, else by building the table.
func (m *Model) andKnowAgent(t *derived, a int, dst, phi *bitset.Set, ks *kernelScratch) {
	s := &t.parts[a]
	if s.p.Load() == nil && s.idsUses.Add(1) <= knowIDsUses {
		r := &m.rels[a]
		andKnowIDs(dst, phi, r.ids, r.n, ks)
		return
	}
	m.part(t, a).andKnowInto(dst, phi, ks)
}

// groupKey appends the canonical cache key of a resolved agent list: "*"
// for exactly the full agent set 0..numAgents-1, the comma-joined indices
// otherwise (agent lists with duplicates keep their literal key, which at
// worst caches an equal partition twice).
func (m *Model) groupKey(dst []byte, agents []int) []byte {
	if len(agents) == m.numAgents {
		full := true
		for i, a := range agents {
			if a != i {
				full = false
				break
			}
		}
		if full {
			return append(dst, '*')
		}
	}
	for i, a := range agents {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return dst
}

// reachPartition returns the partition of the worlds into G-reachability
// components (Section 6: the transitive closure of the union of the G view
// partitions), memoized per agent group. C_G evaluation — including every
// iteration of a fixed point — reuses it instead of rebuilding a
// union-find per call.
func (m *Model) reachPartition(t *derived, agents []int, keyBuf []byte) *partition {
	if len(agents) == 1 {
		return m.part(t, agents[0]) // one view partition is its own closure
	}
	s := t.groupSlot(t.reach, m.groupKey(keyBuf[:0], agents))
	return s.get(func() *partition {
		rels := make([]agentRel, len(agents))
		for i, a := range agents {
			rels[i] = m.rels[a]
		}
		return newPartition(unionIDs(m.numWorlds, rels))
	})
}

// unionIDs returns dense ids, and their count, of the connected components
// of W worlds under the union of the classes of rels (for the views of G,
// the G-reachability components of Section 6): one union-find pass that
// joins each class's worlds to its first.
func unionIDs(W int, rels []agentRel) ([]int32, int) {
	d := unionfind.New(W)
	first := make([]int32, W) // a class count is at most W
	for _, r := range rels {
		f := first[:r.n]
		for i := range f {
			f[i] = -1
		}
		for w, id := range r.ids {
			if f[id] < 0 {
				f[id] = int32(w)
			} else {
				d.Union(int(f[id]), w)
			}
		}
	}
	ids := make([]int32, W)
	return ids, d.CompIDsInto(ids, first)
}

// jointPartition returns the common refinement of the agents' view
// partitions (the joint view underlying D_G), memoized per agent group.
// Callers must pass a non-empty agent list.
func (m *Model) jointPartition(t *derived, agents []int, keyBuf []byte) *partition {
	if len(agents) == 1 {
		return m.part(t, agents[0]) // one view partition is its own refinement
	}
	s := t.groupSlot(t.joint, m.groupKey(keyBuf[:0], agents))
	return s.get(func() *partition {
		ids := make([]int32, m.numWorlds)
		copy(ids, m.rels[agents[0]].ids)
		n := m.rels[agents[0]].n
		pair := make(map[uint64]int32)
		for _, a := range agents[1:] {
			clear(pair)
			other := m.rels[a].ids
			next := int32(0)
			for w := 0; w < m.numWorlds; w++ {
				k := uint64(ids[w])<<32 | uint64(uint32(other[w]))
				id, ok := pair[k]
				if !ok {
					id = next
					next++
					pair[k] = id
				}
				ids[w] = id
			}
			n = int(next)
		}
		return newPartition(ids, n)
	})
}

// everyoneInto computes E_G(phi) = ∧_a K_a(phi) into dst (overwritten).
func (m *Model) everyoneInto(t *derived, agents []int, dst, phi *bitset.Set, ks *kernelScratch) {
	dst.Fill()
	for _, a := range agents {
		m.andKnowAgent(t, a, dst, phi, ks)
	}
}

// KnowSet computes K_a applied to an already-evaluated world set phi: the
// worlds whose whole partition class for agent a lies inside phi. It is the
// set-level form of the K_a operator, used by the temporal semantics of the
// runs package.
func (m *Model) KnowSet(a int, phi *bitset.Set) *bitset.Set {
	ev := m.getEvaluator()
	defer m.putEvaluator(ev)
	out := bitset.New(m.numWorlds)
	m.knowAgentInto(ev.t, a, out, phi, &ev.ks)
	return out
}

// GroupAgents expands a (possibly nil) group into explicit agent indices.
func (m *Model) GroupAgents(g logic.Group) ([]int, error) {
	return m.resolveGroup(g)
}

// GReachIDs returns dense component ids for the G-reachability relation of
// Section 6 (the transitive closure of the union of the G partitions). Two
// worlds are G-reachable from one another iff they share an id. The
// returned slice is a fresh copy.
func (m *Model) GReachIDs(g logic.Group) ([]int, error) {
	agents, err := m.resolveGroup(g)
	if err != nil {
		return nil, err
	}
	var p *partition
	if len(agents) == 0 {
		// No agents: nothing is reachable from anywhere but itself.
		ids := make([]int, m.numWorlds)
		for w := range ids {
			ids[w] = w
		}
		return ids, nil
	}
	ev := m.getEvaluator()
	p = m.reachPartition(ev.t, agents, ev.keyScratch())
	m.putEvaluator(ev)
	out := make([]int, m.numWorlds)
	for w, id := range p.ids {
		out[w] = int(id)
	}
	return out, nil
}

// RefineAgent returns a new model, over the same worlds, in which agent a's
// partition is refined by membership in phi: two worlds remain
// indistinguishable to a only if they were before and phi agrees on them.
// This models a private announcement of φ to agent a — the father taking
// one child aside in Section 3: the child learns whether φ, while the other
// children's knowledge (and the group's common knowledge) is unchanged.
func (m *Model) RefineAgent(a int, phi *bitset.Set) *Model {
	out := NewModel(m.numWorlds, m.numAgents)
	if m.names != nil {
		out.names = append([]string(nil), m.names...)
	}
	for prop, set := range m.valuation {
		out.setFactSet(prop, set.Clone())
	}
	// Class ids are never mutated in place, so the other agents' relations
	// are shared, not copied.
	copy(out.rels, m.relations())
	// Split agent a's classes by phi: renumber (class, φ-bit) pairs.
	src := m.rels[a].ids
	mark := make([]int32, 2*m.rels[a].n)
	for i := range mark {
		mark[i] = -1
	}
	ids := make([]int32, m.numWorlds)
	next := int32(0)
	for w := 0; w < m.numWorlds; w++ {
		k := 2 * src[w]
		if phi.Contains(w) {
			k++
		}
		if mark[k] < 0 {
			mark[k] = next
			next++
		}
		ids[w] = mark[k]
	}
	out.rels[a] = agentRel{ids: ids, n: int(next)}
	return out
}

// restrictScratch is the reusable working state of Restrict: the kept-world
// list and the class-renaming mark table. Kept on a freelist so
// announcement chains (muddy rounds, attack message chains) recycle one
// scratch instead of reallocating per update, however often the collector
// runs.
type restrictScratch struct {
	old  []int
	mark []int32
}

var restrictFree freelist[restrictScratch]

// renumber writes into dst the dense renaming of src's ids gathered over
// the kept worlds, using mark (len >= n, reset here) as scratch, and
// returns the number of surviving classes.
func renumber(dst []int32, src []int32, old []int, mark []int32) int32 {
	for i := range mark {
		mark[i] = -1
	}
	next := int32(0)
	for i, w := range old {
		id := src[w]
		if mark[id] < 0 {
			mark[id] = next
			next++
		}
		dst[i] = mark[id]
	}
	return next
}

// Restrict returns the submodel induced by the given world set (a public
// announcement of "the actual world is in keep"). World w of the new model
// is the i-th element of keep in increasing order. Ground facts and
// indistinguishability are inherited: valuation columns are compacted with
// the word-level gather kernel and per-agent partitions are renamed in one
// pass per agent. No
// derived table is carried over — D_G and C_G partitions are rebuilt on the
// submodel's first use — and neither is the Temporal hook, since run/time
// structure generally does not survive restriction.
func (m *Model) Restrict(keep *bitset.Set) *Model {
	return m.restrict(keep, nil)
}

// RestrictWithQuotient is Restrict threading a Minimize block map of this
// model through the announcement: the submodel's next Minimize (and hence
// QuotientForEval) re-refines from the renamed old blocks instead of the
// trivial partition, which is what makes quotient-before-eval pay inside a
// round loop rather than only for one-shot batches. blocks must be this
// model's own Minimize block map (one entry per world). That exactness lets
// the restriction track which blocks the announcement disturbed, bounding
// the submodel's Minimize to the disturbed region.
func (m *Model) RestrictWithQuotient(keep *bitset.Set, blocks []int) *Model {
	return m.restrict(keep, blocks)
}

// restrict builds the submodel over keep and, when blocks is non-nil,
// installs its renaming as the submodel's quotient seed.
func (m *Model) restrict(keep *bitset.Set, blocks []int) *Model {
	scr := restrictFree.get()
	if scr == nil {
		scr = new(restrictScratch)
	}
	old := scr.old[:0]
	keep.ForEach(func(w int) bool {
		old = append(old, w)
		return true
	})
	scr.old = old
	k := len(old)
	sub := NewModel(k, m.numAgents)

	if m.names != nil {
		sub.names = make([]string, k)
		for i, w := range old {
			sub.names[i] = m.names[w]
		}
	}

	for prop, set := range m.valuation {
		if !set.Intersects(keep) {
			continue
		}
		col := bitset.New(k)
		bitset.Gather(col, set, keep)
		sub.setFactSet(prop, col)
	}

	// Rename each agent's class ids over the surviving worlds and install
	// the resulting partitions directly — no pairwise unions needed.
	for a, rel := range m.relations() {
		if cap(scr.mark) < rel.n {
			scr.mark = make([]int32, rel.n)
		}
		subIDs := make([]int32, k)
		next := renumber(subIDs, rel.ids, old, scr.mark[:rel.n])
		sub.rels[a] = agentRel{ids: subIDs, n: int(next)}
	}

	if blocks != nil {
		m.seedQuotientInto(sub, old, blocks)
	}
	restrictFree.put(scr)
	return sub
}

// seedQuotientInto renames a Minimize block map of m over the kept worlds
// and installs it as the submodel's quotient seed, recording which surviving
// seed blocks the restriction disturbed: a block is dirty iff some view
// class of one of its kept members lost a world. An undisturbed block's
// members keep exactly the modal environment they had, which is what lets
// Minimize's compose pass skip them when hunting for announcement-induced
// merges.
func (m *Model) seedQuotientInto(sub *Model, old []int, blocks []int) {
	if len(blocks) != m.numWorlds {
		panic(fmt.Sprintf("kripke: RestrictWithQuotient got a block map of %d entries for %d worlds",
			len(blocks), m.numWorlds))
	}
	// The Minimize contract makes block ids dense in [0, numWorlds), so a
	// mark table sized by the world count always fits.
	mark := make([]int32, m.numWorlds)
	for i := range mark {
		mark[i] = -1
	}
	subIDs := make([]int32, len(old))
	next := int32(0)
	for i, w := range old {
		b := blocks[w]
		if mark[b] < 0 {
			mark[b] = next
			next++
		}
		subIDs[i] = mark[b]
	}
	dirty := make([]bool, next)
	kept := make([]bool, m.numWorlds)
	for _, w := range old {
		kept[w] = true
	}
	var lost []bool
	for _, rel := range m.relations() {
		if cap(lost) < rel.n {
			lost = make([]bool, rel.n)
		} else {
			lost = lost[:rel.n]
			clear(lost)
		}
		for w, id := range rel.ids {
			if !kept[w] {
				lost[id] = true
			}
		}
		for i, w := range old {
			if lost[rel.ids[w]] {
				dirty[subIDs[i]] = true
			}
		}
	}
	sub.quotSeed = &quotientSeed{ids: subIDs, n: int(next), dirty: dirty}
}
