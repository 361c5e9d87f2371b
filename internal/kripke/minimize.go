package kripke

import (
	"math"
	"slices"
	"strconv"

	"repro/internal/bitset"
)

// Minimize returns the bisimulation quotient of the model: the smallest
// model satisfying exactly the same formulas of the knowledge language at
// corresponding worlds, together with the mapping from old worlds to new.
//
// Point models built from large systems often contain many epistemically
// identical points (e.g. every silent tail of a run); minimizing before
// repeated evaluation can shrink them substantially — see QuotientForEval
// for the batch-evaluation front end. The quotient is computed by partition
// refinement on dense class ids: blocks start as valuation classes (one
// split per fact column) and split until every block has, for every agent,
// the same set of blocks reachable through that agent's view class. All
// bookkeeping is int32 renumbering through reusable mark tables and two
// uint64-keyed maps — one interning each class's sorted block list, one
// numbering the (block, signature) pairs of blocks that actually split —
// the same columnar machinery the Builder and Restrict use, not string
// signatures. That scratch lives in a refiner taken from a package
// freelist, so repeated calls (one per announcement in a chain) reuse its
// slices and map buckets instead of regrowing them.
//
// Minimize is two steps: refineStable runs the refinement, and
// materialize builds the quotient model and block map from it.
// QuotientForEval stops after the first whenever the refined block count
// already decides its shrinkage gate.
//
// On a model produced by RestrictWithQuotient, Minimize re-refines
// incrementally from the renamed pre-announcement blocks instead of the
// trivial partition (see refineStable); the result — including the block
// numbering — is identical to the from-scratch computation, so callers
// never need to distinguish the two paths.
//
// # The block-map contract
//
// The returned slice ("block map") has exactly NumWorlds entries; entry w
// is the quotient world that old world w collapsed to. Every entry is a
// valid world of the quotient — values are dense in [0, q.NumWorlds()) and
// there is no sentinel (no -1, and 0 is an ordinary block id). Blocks are
// numbered by first occurrence: block b's representative — the world
// quotient facts and names are taken from — is the smallest old world w
// with block[w] == b, so block[0] == 0 and each new id exceeds the previous
// maximum by exactly one. Callers may therefore invert the map by a single
// forward scan, and may map any denotation back with set.Contains(block[w]).
//
// The quotient does not preserve the run/time structure, so the Temporal
// hook is not carried over; minimize only models whose formulas are free
// of the run-based operators.
func (m *Model) Minimize() (*Model, []int) {
	if m.numWorlds == 0 {
		return NewModel(0, m.numAgents), []int{}
	}
	return m.refineStable(m.quotSeed).materialize()
}

// minimizeSeeded is Minimize re-refining from the given seed partition
// instead of the model's own quotient seed (see refineStable).
func (m *Model) minimizeSeeded(seed []int32, nSeed int, dirty []bool) (*Model, []int) {
	return m.refineStable(&quotientSeed{ids: seed, n: nSeed, dirty: dirty}).materialize()
}

// refineStable is the refinement step of Minimize on a model with at least
// one world. A nil seed starts from the trivial partition: one block, split
// by every fact column, then refined to stability; the block count is then
// the quotient's world count (r.final).
//
// A non-nil seed — in the announcement-chain use, the pre-announcement
// block map renamed over the kept worlds by RestrictWithQuotient — is first
// split by the fact columns (a no-op for true renamed block maps, which are
// fact-uniform, but it keeps arbitrary seeds sound) and then refined to
// stability, which yields the coarsest *stable refinement of the seed* — a
// bisimulation, but possibly finer than the true coarsest one: a
// restriction usually only splits blocks, yet it can also merge worlds that
// were previously distinguished only through removed worlds. When no
// surviving seed block is dirty (set by RestrictWithQuotient: some view
// class of a kept member lost a world), no world's modal environment
// changed, nothing can have merged, and the refinement is final; otherwise
// materialize runs the compose pass (see composeQuotient).
//
// The returned refiner belongs to the caller, who hands it to materialize
// or, to drop the result, to release.
func (m *Model) refineStable(s *quotientSeed) *refiner {
	var r *refiner
	if s == nil {
		r = m.newRefiner(nil, 0)
		r.final = true
	} else {
		r = m.newRefiner(s.ids, int32(s.n))
		r.seed = s
		r.final = !slices.Contains(s.dirty, true)
	}
	r.splitByFacts()
	r.refine()
	return r
}

// materialize is the materialization step of Minimize: it builds the
// quotient model and block map of a refiner returned by refineStable and
// releases the refiner. A seeded refinement that is not final gets the
// compose pass (see composeQuotient): the intermediate quotient — already
// small — is minimized once more, bounded by the quotient size, never the
// world count, which is what makes the seeded path pay on redundant models.
// When that pass merges blocks, the composed partition is rebuilt into a
// quotient of the model directly, so names, representatives and numbering
// follow the Minimize contract either way.
func (r *refiner) materialize() (*Model, []int) {
	q1, b1 := r.quotient()
	if r.final {
		r.release()
		return q1, b1
	}
	c := q1.composeQuotient(r.seed.ids, b1, r.seed.dirty)
	if c.n == r.n {
		c.release()
		r.release()
		return q1, b1
	}
	// The composed map is the coarsest bisimulation of the model (stable by
	// construction), and composing two first-occurrence-dense maps is
	// first-occurrence dense, so the quotient step applies directly with no
	// further refinement.
	for w, b := range r.block {
		r.block[w] = c.block[b]
	}
	r.n = c.n
	c.release()
	q, block := r.quotient()
	r.release()
	return q, block
}

// composeQuotient runs materialize's merge-finding pass on the
// intermediate quotient q1 (the stable refinement of the seed) and returns
// the refiner holding q1's coarsest bisimulation; the caller releases it.
// It runs only when the restriction disturbed some block (refineStable
// marks the refinement final otherwise: no kept world's view class lost a
// world anywhere, so every world's modal environment — and hence its
// bisimilarity class — is untouched). The touched-block flags then confine
// the pass to the disturbed region: a block whose connected component
// (under the union of all agents' classes) contains no dirty block sits in
// a sub-model identical to its pre-announcement counterpart, so two such
// blocks that the exact seed distinguished stay distinguished. Any merged
// pair therefore has a member in a disturbed component — and its partners
// share that member's fact signature. Grouping exactly the blocks that are
// in a disturbed component or share a fact signature with one (coarser
// than the true quotient, by the above) and refining to stability yields
// the coarsest bisimulation while leaving every clean block a singleton
// the refinement never has to walk.
//
// The dirty flags are sound only for seeds that were the parent model's
// own coarsest quotient, as RestrictWithQuotient requires of its block map.
// Any other seed must mark every block dirty: then every block is in the
// disturbed region and the pass is a full minimization of q1.
func (q1 *Model) composeQuotient(seed []int32, b1 []int, dirty []bool) *refiner {
	// Map each q1 block to its seed block's dirty flag via the block's
	// representative (the smallest member, by the block-map contract).
	nB := q1.numWorlds
	blockDirty := make([]bool, nB)
	repSeen := make([]bool, nB)
	for w, b := range b1 {
		if !repSeen[b] {
			repSeen[b] = true
			blockDirty[b] = dirty[seed[w]]
		}
	}
	// Connected components of q1 under the union of all agents' classes.
	comp, nComp := unionIDs(nB, q1.relations())
	compDirty := make([]bool, nComp)
	for b := 0; b < nB; b++ {
		if blockDirty[b] {
			compDirty[comp[b]] = true
		}
	}
	// Fact signature of each q1 block: successive (sig, bit) renumbering
	// over the fact columns, the same split Minimize itself starts with.
	factSig := make([]int32, nB)
	nSig := int32(1)
	mark := make([]int32, 2*nB)
	for _, prop := range q1.Facts() {
		col := q1.valuation[prop]
		need := 2 * nSig
		for i := int32(0); i < need; i++ {
			mark[i] = -1
		}
		next := int32(0)
		for b := 0; b < nB; b++ {
			k := 2 * factSig[b]
			if col.Contains(b) {
				k++
			}
			if mark[k] < 0 {
				mark[k] = next
				next++
			}
			factSig[b] = mark[k]
		}
		nSig = next
	}
	// The disturbed region: blocks in dirty components seed it, and any
	// block sharing a fact signature with one joins (a merge partner has
	// equal facts, so the signature closure catches it).
	sigDirty := make([]bool, nSig)
	for b := 0; b < nB; b++ {
		if compDirty[comp[b]] {
			sigDirty[factSig[b]] = true
		}
	}
	// Hypothesis partition: disturbed blocks grouped by fact signature,
	// clean blocks as singletons, numbered by first occurrence. It is
	// coarser than the true quotient, so refining it to stability lands
	// exactly there — walking only the disturbed groups. It overwrites the
	// component ids, which are no longer needed.
	hIDs := comp
	sigClass := mark[:nSig]
	for i := range sigClass {
		sigClass[i] = -1
	}
	next := int32(0)
	for b := 0; b < nB; b++ {
		if sigDirty[factSig[b]] {
			if sigClass[factSig[b]] < 0 {
				sigClass[factSig[b]] = next
				next++
			}
			hIDs[b] = sigClass[factSig[b]]
		} else {
			hIDs[b] = next
			next++
		}
	}
	r := q1.newRefiner(hIDs, next)
	r.splitByFacts()
	r.refine()
	return r
}

// refiner is one partition-refinement run over a model: the current block
// ids, the model's agent relations, and every piece of reusable scratch
// the split and signature passes need. Refiners come from refineFree:
// Minimize (from scratch or seeded) takes one, refines to stability,
// materializes the quotient and puts it back, so the next run starts with
// grown slices and map buckets.
type refiner struct {
	m     *Model
	W     int
	block []int32 // block[w] is w's current block id, dense, first-occurrence order
	n     int32   // number of blocks

	// seed is the quotient seed the run started from (nil from scratch),
	// and final reports that n is already the quotient's world count:
	// materialize then needs no compose pass (see refineStable).
	seed  *quotientSeed
	final bool

	rels  []agentRel
	facts []string // the model's fact names, sorted

	mark    []int32
	members []int32
	cursor  []int32
	off     []int32
	// seen stamps blocks with epoch in classSigs. The epoch only grows,
	// across runs too, so stale stamps never match; seen is cleared only
	// when it is reallocated or the epoch would overflow.
	seen   []int32
	epoch  int32
	gather []int32
	sig    []int32
	setIDs map[uint64]int32
	pair   map[uint64]int32

	// refine's per-block split state: the first signature seen in each
	// old block and the new id that (block, first signature) received.
	firstSig []int32
	firstID  []int32

	rep []int32 // quotient's block representatives
}

// refineFree holds idle refiners (see refiner).
var refineFree freelist[refiner]

// refinerReuseWorlds bounds reuse: newRefiner drops an idle refiner whose
// scratch was sized for more than four times the model's worlds plus
// refinerReuseWorlds. Clearing a map costs time in proportion to its
// capacity, so without the bound every signature pass on a small model
// would pay for the largest model the refiner had refined.
const refinerReuseWorlds = 4096

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are not reset.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// newRefiner prepares a refinement run starting from the given seed
// partition (renumbered to dense first-occurrence ids; seed ids must lie
// in [0, nSeed)). A nil seed starts from the trivial one-block partition.
// The refiner comes from refineFree; release returns it.
func (m *Model) newRefiner(seed []int32, nSeed int32) *refiner {
	W := m.numWorlds
	r := refineFree.get()
	if r == nil || cap(r.block) > 4*W+refinerReuseWorlds {
		r = &refiner{setIDs: make(map[uint64]int32), pair: make(map[uint64]int32)}
	}
	r.m, r.W = m, W
	r.seed, r.final = nil, false
	r.block = resize(r.block, W)
	r.members = resize(r.members, W)
	r.cursor = resize(r.cursor, W)
	if seed == nil {
		clear(r.block)
		r.n = 1
	} else {
		r.mark = resize(r.mark, int(nSeed))
		mk := r.mark
		for i := range mk {
			mk[i] = -1
		}
		next := int32(0)
		for w, id := range seed {
			if mk[id] < 0 {
				mk[id] = next
				next++
			}
			r.block[w] = mk[id]
		}
		r.n = next
	}
	r.rels = m.relations()
	r.facts = r.facts[:0]
	for prop := range m.valuation {
		r.facts = append(r.facts, prop)
	}
	slices.Sort(r.facts)
	return r
}

// release returns r to refineFree once its results are copied out. It
// drops every reference into the model, so an idle refiner pins nothing
// but its own scratch.
func (r *refiner) release() {
	r.m, r.seed, r.rels = nil, nil, nil
	clear(r.facts)
	refineFree.put(r)
}

// splitByBit refines the blocks by membership in col: (block, bit) pairs
// are renumbered densely through the mark table.
func (r *refiner) splitByBit(col *bitset.Set) {
	need := 2 * int(r.n)
	if cap(r.mark) < need {
		r.mark = make([]int32, need)
	}
	mk := r.mark[:need]
	for i := range mk {
		mk[i] = -1
	}
	next := int32(0)
	for w := 0; w < r.W; w++ {
		k := 2 * r.block[w]
		if col.Contains(w) {
			k++
		}
		if mk[k] < 0 {
			mk[k] = next
			next++
		}
		r.block[w] = mk[k]
	}
	r.n = next
}

// splitByFacts refines by fact signature, one column at a time (sorted
// fact order keeps the numbering deterministic).
func (r *refiner) splitByFacts() {
	for _, prop := range r.facts {
		r.splitByBit(r.m.valuation[prop])
	}
}

// classSigs assigns every class of one agent an interned id of its set of
// current blocks (equal block sets ⇔ equal ids). Scratch: a counting sort
// of worlds by class, an epoch stamp to deduplicate blocks within a class,
// and a pair-fold interner for the sorted block lists — each sorted list
// folds left through a map[uint64]int32, which is injective on sequences,
// so no strings or hashes that could collide are involved. Sig ids are
// bounded by the total list length, hence < W.
func (r *refiner) classSigs(rel agentRel) []int32 {
	cn := rel.n
	if cap(r.off) < cn+1 {
		r.off = make([]int32, cn+1)
	}
	ofs := r.off[:cn+1]
	for i := range ofs {
		ofs[i] = 0
	}
	for _, id := range rel.ids {
		ofs[id+1]++
	}
	for c := 0; c < cn; c++ {
		ofs[c+1] += ofs[c]
	}
	cur := r.cursor[:cn]
	copy(cur, ofs[:cn])
	for w, id := range rel.ids {
		r.members[cur[id]] = int32(w)
		cur[id]++
	}
	if cap(r.seen) < int(r.n) {
		r.seen = make([]int32, r.n)
		r.epoch = 0
	} else if r.epoch > math.MaxInt32-int32(cn) {
		clear(r.seen[:cap(r.seen)])
		r.epoch = 0
	}
	st := r.seen[:r.n]
	if cap(r.sig) < cn {
		r.sig = make([]int32, cn)
	}
	sg := r.sig[:cn]
	clear(r.setIDs)
	next := int32(0)
	for c := 0; c < cn; c++ {
		r.epoch++
		r.gather = r.gather[:0]
		for k := ofs[c]; k < ofs[c+1]; k++ {
			b := r.block[r.members[k]]
			if st[b] != r.epoch {
				st[b] = r.epoch
				r.gather = append(r.gather, b)
			}
		}
		slices.Sort(r.gather)
		acc := int32(-1)
		for _, b := range r.gather {
			k := uint64(uint32(acc+1))<<32 | uint64(uint32(b))
			id, ok := r.setIDs[k]
			if !ok {
				id = next
				next++
				r.setIDs[k] = id
			}
			acc = id
		}
		sg[c] = acc
	}
	return sg
}

// refine splits until a full round over all agents splits nothing.
// Refinement only ever splits, so a round that leaves the block count
// unchanged is the fixed point. Seeded runs that start at (or near) the
// stable partition pay one confirming round instead of one round per
// distinction the from-scratch refinement has to rediscover.
//
// Each agent's pass renumbers (block, class signature) pairs by first
// occurrence. Most blocks do not split, so a block's first signature and
// its new id sit in two arrays and a world whose signature matches its
// block's first one takes that id without hashing; only a second distinct
// signature in one block — an actual split — goes through the pair map.
// The numbering is the same first-occurrence numbering either way.
func (r *refiner) refine() {
	for {
		before := r.n
		for a := 0; a < r.m.numAgents; a++ {
			rel := r.rels[a]
			if rel.n == r.W {
				// All-singleton classes never split: the blockset of a
				// singleton is the world's own block, already its signature.
				continue
			}
			sg := r.classSigs(rel)
			if cap(r.firstSig) < int(r.n) {
				r.firstSig = make([]int32, r.n)
				r.firstID = make([]int32, r.n)
			}
			fs, fid := r.firstSig[:r.n], r.firstID[:r.n]
			for i := range fs {
				fs[i] = -1
			}
			clear(r.pair)
			next := int32(0)
			for w, b := range r.block {
				s := sg[rel.ids[w]]
				switch {
				case fs[b] < 0:
					fs[b], fid[b] = s, next
					r.block[w] = next
					next++
				case fs[b] == s:
					r.block[w] = fid[b]
				default:
					k := uint64(uint32(b))<<32 | uint64(uint32(s))
					id, ok := r.pair[k]
					if !ok {
						id = next
						next++
						r.pair[k] = id
					}
					r.block[w] = id
				}
			}
			r.n = next
		}
		if r.n == before {
			break
		}
	}
}

// quotient materializes the model of the current block partition, which
// must be stable (refine has run, or the blocks are a known bisimulation).
// rep[b] is the smallest world of block b (blocks are numbered by first
// occurrence, so a forward scan fills it).
func (r *refiner) quotient() (*Model, []int) {
	m, W := r.m, r.W
	nB := int(r.n)
	r.rep = resize(r.rep, nB)
	rep := r.rep
	for i := range rep {
		rep[i] = -1
	}
	for w := 0; w < W; w++ {
		if rep[r.block[w]] < 0 {
			rep[r.block[w]] = int32(w)
		}
	}
	q := NewModel(nB, m.numAgents)
	for prop, set := range m.valuation {
		col := bitset.New(nB)
		for b := 0; b < nB; b++ {
			if set.Contains(int(rep[b])) {
				col.Add(b)
			}
		}
		q.setFactSet(prop, col)
	}
	// Quotient relations: in the stable partition, all members of a block
	// see the same set of blocks through an agent's classes, so any two
	// classes sharing a block have equal block sets. Classes with equal
	// block sets thus have the same smallest block, and classes with
	// different ones are block-disjoint: the smallest block id of a class
	// names its block set exactly, and "same smallest block at the
	// representative's class" is the quotient partition, installed as
	// dense ids with no signature pass and no union-find.
	if cap(r.mark) < nB {
		r.mark = make([]int32, nB)
	}
	mk := r.mark[:nB]
	for a, rel := range r.rels {
		if cap(r.sig) < rel.n {
			r.sig = make([]int32, rel.n)
		}
		minB := r.sig[:rel.n]
		for i := range minB {
			minB[i] = r.n
		}
		for w, c := range rel.ids {
			minB[c] = min(minB[c], r.block[w])
		}
		for i := range mk {
			mk[i] = -1
		}
		qids := make([]int32, nB)
		next := int32(0)
		for b := 0; b < nB; b++ {
			s := minB[rel.ids[rep[b]]]
			if mk[s] < 0 {
				mk[s] = next
				next++
			}
			qids[b] = mk[s]
		}
		q.setPartition(a, qids, int(next))
	}
	// Names "b<block><<rep name>>", with Model.Name's "w<rep>" fallback,
	// assembled in one reused buffer.
	var buf []byte
	for b := 0; b < nB; b++ {
		w := int(rep[b])
		buf = strconv.AppendInt(append(buf[:0], 'b'), int64(b), 10)
		buf = append(buf, '<')
		if w < len(m.names) && m.names[w] != "" {
			buf = append(buf, m.names[w]...)
		} else {
			buf = strconv.AppendInt(append(buf, 'w'), int64(w), 10)
		}
		buf = append(buf, '>')
		q.SetName(b, string(buf))
	}
	outBlock := make([]int, W)
	for w := 0; w < W; w++ {
		outBlock[w] = int(r.block[w])
	}
	return q, outBlock
}
