package kripke

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// This file implements batch evaluation: EvalBatch evaluates many closed
// formulas against one model on one evaluator. The paper's batch-shaped
// workloads are many epistemic queries against one model — the n
// per-child know-sets of a muddy children round, an E^k tower, a C check
// per announcement link — and they share subformulas: E^k φ contains
// E^(k-1) φ, and every child's query reads the same partition tables. One
// evaluator whose closed-subformula memo spans the batch derives each
// shared subformula once, so a knowledge tower costs one kernel per level
// instead of one per level per formula.
//
// Concurrency lives one level up: independent EvalBatch and Eval calls may
// run concurrently on one fully constructed model. The derived tables are
// built once in their tableSlots (model.go), each evaluator is private, and
// on a Quotiented view the callers share the view's lock-striped memo
// (quotient.go).
//
// Verdicts are deterministic: a batch returns, set for set, what a loop of
// Eval calls returns.

// BatchOption is the type of BatchWorkers; EvalBatchCtx ignores it.
type BatchOption struct{}

// BatchWorkers is ignored: every batch runs on one evaluator whatever n is.
// perfbench's replay is its only caller, and no other code may call it;
// perfbench v2 deletes both that call and this shim.
func BatchWorkers(n int) BatchOption { return BatchOption{} }

// EvalBatch evaluates every formula of the batch, in order, on one
// evaluator whose closed-subformula memo spans the batch, and returns their
// denotations. All formulas must be closed. The returned sets are owned by
// the caller. On error, the first failing formula's error is returned.
//
// Like concurrent Eval, EvalBatch requires the model to be fully
// constructed; it may run concurrently with other EvalBatch or Eval calls
// on the same model, but not with construction.
func (m *Model) EvalBatch(fs []logic.Formula) ([]*bitset.Set, error) {
	return m.EvalBatchCtx(context.Background(), fs)
}

// EvalBatchCtx is EvalBatch with deadline/cancellation propagation: the
// context is checked before every formula, so a caller whose context dies
// (a disconnected client, an expired deadline) stops the batch after at
// most the one formula in flight. On cancellation the error is ctx.Err()
// and no results are returned. With a context that never cancels, results
// are byte-identical to EvalBatch. The options are ignored (BatchOption).
func (m *Model) EvalBatchCtx(ctx context.Context, fs []logic.Formula, _ ...BatchOption) ([]*bitset.Set, error) {
	return m.evalBatch(ctx, fs, nil)
}

// evalBatch runs a batch on one evaluator that reads and publishes through
// the memo sm: a view's long-lived memo, or nil for the evaluator's own
// memo, which lives as long as the batch.
func (m *Model) evalBatch(ctx context.Context, fs []logic.Formula, sm *sharedMemo) ([]*bitset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := m.getEvaluator()
	ev.shared = sm
	defer m.putEvaluator(ev)
	out := make([]*bitset.Set, len(fs))
	for i, f := range fs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, owned, err := ev.eval(f, nil)
		if err != nil {
			return nil, err
		}
		if owned {
			out[i] = s // scratch set leaves the evaluator's freelist
		} else {
			out[i] = s.Clone()
		}
	}
	return out, nil
}
