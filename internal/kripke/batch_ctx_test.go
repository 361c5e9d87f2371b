package kripke

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// TestEvalBatchCtxUncancelledIdentical pins the acceptance contract of the
// context-threading path: with a context that never cancels, EvalBatchCtx
// is byte-identical to EvalBatch, on cold and warm caches.
func TestEvalBatchCtxUncancelledIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(150)
		numAgents := 1 + rng.Intn(4)
		m := randModel(rng, n, numAgents)
		fs := batchFormulas(numAgents)

		want, err := m.EvalBatch(fs)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := m.EvalBatchCtx(context.Background(), fs)
			if err != nil {
				t.Fatalf("trial %d pass %d: %v", trial, pass, err)
			}
			for i := range fs {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d pass %d: EvalBatchCtx[%d] = %s, want %s",
						trial, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEvalBatchCtxPreCancelled checks that an already-dead context returns
// its error before any evaluation work.
func TestEvalBatchCtxPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randModel(rng, 64, 2)
	fs := batchFormulas(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := m.EvalBatchCtx(ctx, fs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("results returned despite cancellation")
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := m.EvalBatchCtx(dctx, fs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// cancellingTemporal is a TemporalSemantics hook that counts evaluations
// and cancels a context on the first one — a deterministic probe for how
// much work a batch does after its caller disappears mid-flight.
type cancellingTemporal struct {
	evals  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingTemporal) EvalTemporal(dst *bitset.Set, _ logic.Op, _ int, _ []int, _ []*bitset.Set) {
	if c.evals.Add(1) == 1 {
		c.cancel()
	}
	dst.Clear()
}

// cancelProbeModel builds a model whose temporal hook cancels the given
// context on the first temporal evaluation, plus a batch of nf distinct
// temporal formulas (distinct, so the batch memo cannot absorb them). Each
// is an E^⋄, which calls the hook once, so each formula the engine
// actually picks up counts exactly once; a C^⋄ would call it once per
// fixed-point iteration.
func cancelProbeModel(nf int, cancel context.CancelFunc) (*Model, *cancellingTemporal, []logic.Formula) {
	const worlds = 32
	m := NewModel(worlds, 2)
	for w := 0; w < worlds; w++ {
		m.SetName(w, "w"+strconv.Itoa(w))
	}
	hook := &cancellingTemporal{cancel: cancel}
	m.Temporal = hook
	fs := make([]logic.Formula, nf)
	for i := range fs {
		fs[i] = logic.Eev(nil, logic.P(fmt.Sprintf("p%d", i)))
	}
	return m, hook, fs
}

// TestEvalBatchCtxSerialCancelStopsAfterOneFormula: the context is checked
// between formulas, so a batch whose first formula's
// evaluation kills the caller evaluates exactly that one formula out of a
// thousand — far less than one batch's worth of work.
func TestEvalBatchCtxSerialCancelStopsAfterOneFormula(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, hook, fs := cancelProbeModel(1000, cancel)
	out, err := m.EvalBatchCtx(ctx, fs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("results returned despite cancellation")
	}
	if got := hook.evals.Load(); got != 1 {
		t.Fatalf("batch evaluated %d formulas after cancellation, want exactly 1", got)
	}
}

// TestQuotientedEvalBatchCtx checks the view-level wrapper: cancellation
// propagates, and an uncancelled context returns exactly what EvalBatch
// does, expanded through the block map.
func TestQuotientedEvalBatchCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randModel(rng, 256, 3)
	q := m.QuotientForEval(1)
	fs := batchFormulas(3)

	want, err := q.EvalBatch(fs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.EvalBatchCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if !got[i].Equal(want[i]) {
			t.Fatalf("EvalBatchCtx[%d] = %s, want %s", i, got[i], want[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.EvalBatchCtx(ctx, fs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
