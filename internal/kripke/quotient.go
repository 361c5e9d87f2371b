package kripke

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// Quotient-before-eval: "Common knowledge revisited" observes that whether
// common knowledge is attained depends on the granularity of the model —
// and so does the cost of checking it. Point models built from run systems
// are full of epistemically identical worlds (silent run tails, permuted
// histories); evaluating a batch of formulas is then cheaper on the
// bisimulation quotient, which satisfies exactly the same formulas at the
// image worlds. Quotiented packages that heuristic: minimize once, evaluate
// every formula of the batch on the quotient, and map each verdict back
// through the block map of Minimize.

// QuotientMinWorlds is the default size threshold of QuotientForEval: below
// it the one-off Minimize pass costs more than it could save, so the
// original model is evaluated directly.
const QuotientMinWorlds = 256

// quotientKeepRatio is the shrinkage a quotient must achieve to be worth
// indirecting through: quotients above this fraction of the original size
// (e.g. the muddy-children models, whose worlds all differ in facts) are
// discarded and the original model evaluated directly.
const quotientKeepRatio = 0.75

// memoShards is the stripe count of a view's closed-subformula memo. Keys
// are spread by FNV-1a, so a handful of stripes keeps concurrent callers on
// disjoint locks.
const memoShards = 16

// viewMemoBytes bounds the closed-subformula memo of one Quotiented view:
// the words of the published sets plus their key bytes, split evenly over
// the stripes. A stripe that would overflow its share is cleared before the
// insert. The bound is of the order of a muddy:12 model's own partition
// tables, and it is per view, so a daemon holding many warm sessions pays
// it once per session.
const viewMemoBytes = 1 << 20

type memoShard struct {
	mu    sync.RWMutex
	m     map[string]*bitset.Set
	bytes int // set words plus key bytes held
}

// sharedMemo is the lock-striped, bounded closed-subformula memo of one
// Quotiented view, shared by every evaluation on the view for as long as
// it lives. Values are immutable once published.
type sharedMemo struct {
	shards [memoShards]memoShard
	// shardBudget bounds each stripe's bytes (viewMemoBytes/memoShards).
	shardBudget int

	// Lookup counts, folded in by putEvaluator once per evaluation.
	hits, misses atomic.Int64
}

// shardOf spreads structural keys across the stripes (FNV-1a).
func shardOf(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return h % memoShards
}

func (sm *sharedMemo) get(key []byte) *bitset.Set {
	sh := &sm.shards[shardOf(key)]
	sh.mu.RLock()
	s := sh.m[string(key)]
	sh.mu.RUnlock()
	return s
}

// put publishes s under key and returns the set the memo holds for it: s
// when s was published, the earlier publisher's set when another evaluator
// won, or nil when s alone would exceed a stripe's budget and was not
// published. Unless s itself is returned, the caller still owns s.
func (sm *sharedMemo) put(key []byte, s *bitset.Set) *bitset.Set {
	sh := &sm.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w, ok := sh.m[string(key)]; ok {
		return w
	}
	cost := 8*len(s.Words()) + len(key)
	if cost > sm.shardBudget {
		return nil
	}
	if sh.bytes+cost > sm.shardBudget {
		clear(sh.m)
		sh.bytes = 0
	}
	sh.bytes += cost
	if sh.m == nil {
		sh.m = make(map[string]*bitset.Set)
	}
	sh.m[string(key)] = s
	return s
}

// Quotiented evaluates formulas on the bisimulation quotient of a model
// while reporting verdicts in terms of the original worlds. Build one with
// QuotientForEval; it is safe for concurrent use once built, like the
// models it wraps.
//
// A view fixes its model, so it fixes every denotation: the view keeps a
// closed-subformula memo, bounded by viewMemoBytes, that Eval, EvalBatch,
// Holds and Valid read from and publish to for as long as the view lives.
// A knowledge tower asked again — E^k φ after E^(k-1) φ, the same K, D and
// C over the same atoms in batch after batch — is then served from the
// memo instead of the partition kernels.
type Quotiented struct {
	orig  *Model
	quot  *Model // model formulas evaluate on; == orig when quotienting was skipped
	block []int  // Minimize block map; nil when quotienting was skipped
	memo  sharedMemo
}

// newView builds a view evaluating on quot, with a fresh bounded memo.
func newView(orig, quot *Model, block []int) *Quotiented {
	q := &Quotiented{orig: orig, quot: quot, block: block}
	q.memo.shardBudget = viewMemoBytes / memoShards
	return q
}

// QuotientForEval returns a batch-evaluation view of the model that
// evaluates on the bisimulation quotient when that is worthwhile:
// the model must have at least minWorlds worlds (<= 0 means the
// QuotientMinWorlds default), no temporal structure (run-based operators do
// not survive minimization), and the quotient must actually shrink the
// model (see quotientKeepRatio). Otherwise the view transparently evaluates
// the original model — callers never need to distinguish the two cases.
//
// The shrinkage gate reads the refined block count: when that count is
// already the quotient's size (every from-scratch refinement, and a seeded
// one the restriction left undisturbed) and the gate rejects it, the view
// is built without materializing the quotient model or its block map.
//
// The view memoizes denotations for its whole lifetime, so the model must
// be fully constructed before the view is built and never mutated
// afterwards — no SetTrue, SetFact or Indistinguishable, and no change to
// its Temporal hook. A mutated model would keep answering from the memo.
func (m *Model) QuotientForEval(minWorlds int) *Quotiented {
	if minWorlds <= 0 {
		minWorlds = QuotientMinWorlds
	}
	if m.Temporal != nil || m.numWorlds < minWorlds {
		return newView(m, m, nil)
	}
	r := m.refineStable(m.quotSeed)
	if r.final && !worthQuotienting(int(r.n), m.numWorlds) {
		r.release()
		return newView(m, m, nil)
	}
	q, block := r.materialize()
	if !worthQuotienting(q.numWorlds, m.numWorlds) {
		return newView(m, m, nil)
	}
	return newView(m, q, block)
}

// worthQuotienting is the shrinkage gate: a quotient of nq worlds is kept
// for a model of w worlds only at or below quotientKeepRatio of its size.
func worthQuotienting(nq, w int) bool {
	return float64(nq) <= quotientKeepRatio*float64(w)
}

// QuotientForEvalEpistemic is QuotientForEval for models carrying a
// temporal hook whose formula batch is nonetheless known to be free of the
// run-based operators: the hook is detached (temporal operators error out
// on the view, matching the quotient, instead of silently depending on
// whether the quotient gates fired) and the purely epistemic structure is
// quotiented as usual. The view shares the model's construction data; like
// concurrent Eval, it requires the model to be fully constructed.
func (m *Model) QuotientForEvalEpistemic(minWorlds int) *Quotiented {
	return m.epistemicView().QuotientForEval(minWorlds)
}

// epistemicView returns the model stripped of its temporal hook: a shallow
// model sharing the (immutable once constructed) valuation columns, names,
// relation ids and quotient seed, with its own derived-table caches.
func (m *Model) epistemicView() *Model {
	if m.Temporal == nil {
		return m
	}
	v := NewModel(m.numWorlds, m.numAgents)
	v.names = m.names
	v.valuation = m.valuation
	v.quotSeed = m.quotSeed
	copy(v.rels, m.relations())
	return v
}

// Quotiented reports whether evaluation actually runs on a quotient (false
// when the size or shrinkage gates kept the original model).
func (q *Quotiented) Quotiented() bool { return q.block != nil }

// Model returns the original model the view wraps.
func (q *Quotiented) Model() *Model { return q.orig }

// Blocks returns the Minimize block map evaluation is routed through, or
// nil when the gates kept the original model. The slice is shared with the
// view; callers must not modify it.
func (q *Quotiented) Blocks() []int { return q.block }

// Restrict applies a public announcement to the view: the original model is
// restricted to keep (a set of original-model worlds), the current block
// map — when there is one — is threaded through the restriction so the
// submodel's quotient re-refines incrementally from the renamed old blocks,
// and a fresh view is built over the submodel with the same gates as
// QuotientForEval. This is the per-round step of an announcement chain:
// each link pays an incremental re-refinement instead of a from-scratch
// Minimize. The new view starts with an empty memo: links never share
// denotations.
func (q *Quotiented) Restrict(keep *bitset.Set, minWorlds int) *Quotiented {
	if q.block == nil {
		return q.orig.Restrict(keep).QuotientForEval(minWorlds)
	}
	return q.orig.RestrictWithQuotient(keep, q.block).QuotientForEval(minWorlds)
}

// NumWorlds returns the world count of the original model.
func (q *Quotiented) NumWorlds() int { return q.orig.numWorlds }

// QuotientWorlds returns the world count of the model evaluation runs on.
func (q *Quotiented) QuotientWorlds() int { return q.quot.numWorlds }

// MemoStats counts the closed-subformula lookups of the view's evaluations
// since it was built.
type MemoStats struct {
	Hits   int64 // served by a memo, the view's or the evaluation's own
	Misses int64 // ran the subformula's kernels
}

// MemoStats returns the view memo's lookup counts. Counts are folded in
// when an evaluation finishes, so a snapshot taken while evaluations run
// excludes them.
func (q *Quotiented) MemoStats() MemoStats {
	return MemoStats{Hits: q.memo.hits.Load(), Misses: q.memo.misses.Load()}
}

// eval evaluates f on the quotient through the view memo. The result is
// over quotient worlds; unless owned, it is shared and must not be
// modified.
func (q *Quotiented) eval(f logic.Formula) (*bitset.Set, bool, error) {
	return q.quot.evalWith(f, nil, &q.memo)
}

// Eval returns the set of original-model worlds at which f holds: the
// formula is evaluated on the quotient and the verdict expanded back
// through the block map. The returned set is owned by the caller.
func (q *Quotiented) Eval(f logic.Formula) (*bitset.Set, error) {
	qset, owned, err := q.eval(f)
	if err != nil {
		return nil, err
	}
	if q.block != nil {
		return q.expand(qset), nil
	}
	if !owned {
		qset = qset.Clone()
	}
	return qset, nil
}

// expand maps a quotient-world denotation back to original-model worlds
// through the block map.
func (q *Quotiented) expand(qset *bitset.Set) *bitset.Set {
	out := bitset.New(q.orig.numWorlds)
	for w, b := range q.block {
		if qset.Contains(b) {
			out.Add(w)
		}
	}
	return out
}

// EvalBatch evaluates a batch of formulas on the quotient on one evaluator,
// as Model.EvalBatch does, through the view memo, and expands every verdict
// back through the block map. Results are identical, set for set, to
// calling Eval on each formula in order.
func (q *Quotiented) EvalBatch(fs []logic.Formula) ([]*bitset.Set, error) {
	return q.EvalBatchCtx(context.Background(), fs)
}

// EvalBatchCtx is EvalBatch with the deadline/cancellation propagation of
// Model.EvalBatchCtx: a cancelled context stops the batch after at most the
// one formula in flight, and the block-map expansion is skipped entirely.
// The options are ignored (BatchOption).
func (q *Quotiented) EvalBatchCtx(ctx context.Context, fs []logic.Formula, _ ...BatchOption) ([]*bitset.Set, error) {
	qsets, err := q.quot.evalBatch(ctx, fs, &q.memo)
	if err != nil {
		return nil, err
	}
	if q.block == nil {
		return qsets, nil
	}
	out := make([]*bitset.Set, len(qsets))
	for i, qs := range qsets {
		out[i] = q.expand(qs)
	}
	return out, nil
}

// Holds reports whether f holds at original-model world w.
func (q *Quotiented) Holds(f logic.Formula, w int) (bool, error) {
	qset, _, err := q.eval(f)
	if err != nil {
		return false, err
	}
	if q.block == nil {
		return qset.Contains(w), nil
	}
	return qset.Contains(q.block[w]), nil
}

// Valid reports whether f holds at every world. Bisimilar worlds satisfy
// the same formulas, so validity on the quotient and on the original model
// coincide.
func (q *Quotiented) Valid(f logic.Formula) (bool, error) {
	qset, _, err := q.eval(f)
	if err != nil {
		return false, err
	}
	return qset.IsFull(), nil
}
