package kripke

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// This file implements the parallel batch-evaluation engine: EvalBatch fans
// independent Eval calls out across a worker pool over one shared model.
// The paper's headline workloads are many independent epistemic queries
// against one model — the n per-child know-sets of a muddy children round,
// the dozens of experiment formulas per system — and Halpern–Moses model
// checking is embarrassingly parallel at the query level.
//
// What the workers share, and why it is safe:
//
//   - The model's construction data (valuation columns, relation ids) is
//     immutable during evaluation, as the concurrent-Eval contract already
//     requires.
//   - Derived tables (per-agent partitions, joint-view refinements,
//     reachability components) are built lazily, each in its own tableSlot
//     (model.go): the first evaluator to need a table builds it under that
//     slot's lock and the others wait for the result instead of
//     duplicating the build, while builds of different tables run in
//     parallel. Workers build what their formulas need as they meet it.
//   - Each worker owns a pooled evaluator (scratch freelist, kernel
//     scratch, key arena), so all mutable evaluation state is private.
//   - Closed-subformula denotations are shared through a lock-striped
//     structural-key memo (sharedMemo): the first worker to finish a
//     closed subformula publishes its denotation, later workers reuse it.
//     The memo lives as long as the batch, or as long as the Quotiented
//     view the batch runs on.
//     Published sets are immutable from publication on — the evaluator
//     treats shared memo hits exactly like its local memo hits (owned =
//     false, copy before mutating).
//
// Verdicts are deterministic: denotations are semantically determined, so
// the batch result is byte-identical to a serial Eval loop regardless of
// scheduling (pinned by batch tests and the root regression test).

// BatchOption configures EvalBatch.
type BatchOption func(*batchConfig)

type batchConfig struct {
	workers int
}

// BatchWorkers sets the worker count of an EvalBatch: n <= 0 selects one
// worker per core (GOMAXPROCS, the default), n == 1 forces the serial
// path, and larger n caps the pool at n workers. The pool is never wider
// than the batch.
func BatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// WorkersFromFlag maps the CLI -parallel flag convention shared by the
// repo's commands (flag < 0 = one worker per core, flag == 0 = serial,
// flag == n = n workers) onto the worker-count semantics of BatchWorkers
// and core.RunAllWorkers (0 = one per core, 1 = serial).
func WorkersFromFlag(flag int) int {
	switch {
	case flag < 0:
		return 0
	case flag == 0:
		return 1
	default:
		return flag
	}
}

// memoShards is the stripe count of the shared structural-key memo. Keys
// are spread by FNV-1a, so a handful of stripes keeps workers on disjoint
// locks.
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
	bytes int // set words plus key bytes held, counted when the memo is bounded
}

// sharedMemo is the lock-striped closed-subformula memo shared by the
// evaluators of one EvalBatch (unbounded, dropped with the batch) or of one
// Quotiented view (bounded by viewMemoBytes, living as long as the view).
// Values are immutable once published. The zero value is an empty,
// unbounded memo.
type sharedMemo struct {
	shards [memoShards]memoShard
	// shardBudget bounds each stripe's bytes; 0 leaves the memo unbounded.
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
// won, or nil when s alone would exceed a bounded stripe and was not
// published. Unless s itself is returned, the caller still owns s.
func (sm *sharedMemo) put(key []byte, s *bitset.Set) *bitset.Set {
	sh := &sm.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w, ok := sh.m[string(key)]; ok {
		return w
	}
	if sm.shardBudget > 0 {
		cost := 8*len(s.Words()) + len(key)
		if cost > sm.shardBudget {
			return nil
		}
		if sh.bytes+cost > sm.shardBudget {
			clear(sh.m)
			sh.bytes = 0
		}
		sh.bytes += cost
	}
	if sh.m == nil {
		sh.m = make(map[string]*bitset.Set)
	}
	sh.m[string(key)] = s
	return s
}

// EvalBatch evaluates every formula of the batch and returns their
// denotations, in order, fanning the evaluations out across a worker pool
// over this one model (see BatchWorkers; the default is one worker per
// core, so on a single-core machine the batch degenerates to the serial
// loop). All formulas must be closed. The returned sets are owned by the
// caller. On error, the error of the smallest failing index is returned —
// the same error a serial loop would have stopped at.
//
// Like concurrent Eval, EvalBatch requires the model to be fully
// constructed; it may run concurrently with other EvalBatch or Eval calls
// on the same model, but not with construction.
func (m *Model) EvalBatch(fs []logic.Formula, opts ...BatchOption) ([]*bitset.Set, error) {
	return m.EvalBatchCtx(context.Background(), fs, opts...)
}

// EvalBatchCtx is EvalBatch with deadline/cancellation propagation: the
// context is checked before every formula pickup — on the serial path and
// in every worker of the fan-out — so a caller whose context dies (a
// disconnected client, an expired deadline) stops burning cores after at
// most one in-flight formula per worker instead of finishing the whole
// batch. On cancellation the error is ctx.Err() and no results are
// returned. With a context that never cancels, results are byte-identical
// to EvalBatch — the checks are reads, never branches in the evaluation
// itself.
func (m *Model) EvalBatchCtx(ctx context.Context, fs []logic.Formula, opts ...BatchOption) ([]*bitset.Set, error) {
	return m.evalBatch(ctx, fs, nil, opts)
}

// evalBatch runs a batch with the closed-subformula memo sm shared by all
// of its evaluators: a view's long-lived memo, or nil for a memo that
// lives as long as the batch (none on the serial path, whose one evaluator
// already memoizes across the batch).
func (m *Model) evalBatch(ctx context.Context, fs []logic.Formula, sm *sharedMemo, opts []BatchOption) ([]*bitset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fs) {
		workers = len(fs)
	}
	out := make([]*bitset.Set, len(fs))
	if workers <= 1 {
		// Serial path: one evaluator for the whole batch, so its
		// closed-subformula memo is shared across the formulas — a
		// knowledge tower (each level containing the previous) costs one
		// kernel per level instead of re-deriving every prefix. Results
		// are identical to per-formula Eval; -parallel=0 / GOMAXPROCS=1
		// callers measure the serial engine, batch-memoized.
		ev := m.getEvaluator()
		ev.shared = sm
		defer m.putEvaluator(ev)
		for i, f := range fs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s, owned, err := ev.eval(f, nil)
			if err != nil {
				return nil, err
			}
			if owned {
				out[i] = s // scratch set leaves the evaluator's pool
			} else {
				out[i] = s.Clone()
			}
		}
		return out, nil
	}

	if sm == nil {
		sm = &sharedMemo{}
	}
	errs := make([]error, len(fs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// sm is passed, not captured: a captured, reassigned parameter
		// would move to the heap on every call, the serial path's too.
		go func(sm *sharedMemo) {
			defer wg.Done()
			ev := m.getEvaluator()
			ev.shared = sm
			defer m.putEvaluator(ev)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(fs) {
					return
				}
				s, owned, err := ev.eval(fs[i], nil)
				if err != nil {
					errs[i] = err
					continue
				}
				if owned {
					out[i] = s // scratch set leaves the evaluator's pool
				} else {
					// Shared state (a memo entry, a fact column): the
					// caller gets an independent copy.
					out[i] = s.Clone()
				}
			}
		}(sm)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
