package kripke

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/logic"
)

var quotientBatch = []logic.Formula{
	logic.P("p"),
	logic.Neg(logic.P("q")),
	logic.K(0, logic.P("p")),
	logic.E(nil, logic.Disj(logic.P("p"), logic.P("q"))),
	logic.D(nil, logic.P("q")),
	logic.C(nil, logic.P("p")),
	logic.EK(nil, 4, logic.P("p")),
	logic.MustParse("nu X . E (p & X)"),
	logic.Disj(
		logic.K(0, logic.Neg(logic.K(1, logic.P("p")))),
		logic.C(nil, logic.Imp(logic.P("p"), logic.P("q")))),
}

// TestQuickQuotientForEvalAgrees: Eval/Holds/Valid through the quotient
// view must return exactly the direct verdicts, whether or not the gates
// let the quotient fire.
func TestQuickQuotientForEvalAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 2+rng.Intn(40), 2+rng.Intn(2))
		q := m.QuotientForEval(1) // force the quotient attempt at any size
		for _, phi := range quotientBatch {
			direct, err := m.Eval(phi)
			if err != nil {
				t.Fatal(err)
			}
			via, err := q.Eval(phi)
			if err != nil {
				t.Fatal(err)
			}
			if !direct.Equal(via) {
				t.Errorf("seed %d: %s: quotient verdict %s != direct %s", seed, phi, via, direct)
				return false
			}
			holds, err := q.Holds(phi, 0)
			if err != nil {
				t.Fatal(err)
			}
			if holds != direct.Contains(0) {
				t.Errorf("seed %d: %s: Holds(0) = %v, want %v", seed, phi, holds, direct.Contains(0))
				return false
			}
			valid, err := q.Valid(phi)
			if err != nil {
				t.Fatal(err)
			}
			if valid != direct.IsFull() {
				t.Errorf("seed %d: %s: Valid = %v, want %v", seed, phi, valid, direct.IsFull())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuotientForEvalGates: the size, shrinkage and temporal gates must
// fall back to the original model.
func TestQuotientForEvalGates(t *testing.T) {
	// Size gate: a collapsible model below the threshold stays unquotiented.
	m := NewModel(4, 1)
	m.SetTrue(0, "p")
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(0, 2, 3)
	if q := m.QuotientForEval(0); q.Quotiented() {
		t.Error("size gate did not hold below QuotientMinWorlds")
	}
	if q := m.QuotientForEval(1); !q.Quotiented() {
		t.Error("explicit minWorlds=1 did not force the quotient")
	} else if q.QuotientWorlds() != 2 {
		t.Errorf("quotient has %d worlds, want 2", q.QuotientWorlds())
	}

	// Shrinkage gate: the chain model is its own quotient.
	if q := chainModel(16).QuotientForEval(1); q.Quotiented() {
		t.Error("shrinkage gate kept an unshrunk quotient")
	}

	// Shrinkage boundary: on 12 worlds the gate keeps a quotient of
	// 0.75*12 = 9 worlds and drops one of 10.
	for _, nq := range []int{9, 10} {
		mb := NewModel(12, 1)
		for w := 0; w < 12; w++ {
			mb.SetTrue(w, fmt.Sprintf("p%d", w%nq))
			mb.Indistinguishable(0, 0, w)
		}
		q := mb.QuotientForEval(1)
		if want := nq == 9; q.Quotiented() != want {
			t.Errorf("%d-world quotient of 12 worlds: Quotiented() = %v, want %v", nq, q.Quotiented(), want)
		} else if want && q.QuotientWorlds() != nq {
			t.Errorf("quotient has %d worlds, want %d", q.QuotientWorlds(), nq)
		}
	}

	// Temporal gate.
	mt := NewModel(4, 1)
	mt.Indistinguishable(0, 0, 1)
	mt.Indistinguishable(0, 2, 3)
	mt.Temporal = stubTemporal{}
	if q := mt.QuotientForEval(1); q.Quotiented() {
		t.Error("temporal gate did not hold")
	}
}

type stubTemporal struct{}

func (stubTemporal) EvalTemporal(dst *bitset.Set, _ logic.Op, _ int, _ []int, _ []*bitset.Set) {
	dst.Clear()
}

// TestQuotientForEvalEpistemic: detaching the temporal hook lets the
// epistemic structure quotient, temporal formulas error out on the view,
// and epistemic verdicts agree with the hooked original.
func TestQuotientForEvalEpistemic(t *testing.T) {
	m := NewModel(4, 1)
	m.SetTrue(0, "p")
	m.SetTrue(2, "p")
	m.Indistinguishable(0, 0, 1)
	m.Indistinguishable(0, 2, 3)
	m.Temporal = stubTemporal{}
	q := m.QuotientForEvalEpistemic(1)
	if !q.Quotiented() {
		t.Fatal("epistemic quotient did not fire on a temporal model")
	}
	phi := logic.K(0, logic.P("p"))
	direct, err := m.Eval(phi)
	if err != nil {
		t.Fatal(err)
	}
	via, err := q.Eval(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(via) {
		t.Errorf("epistemic quotient verdict %s != direct %s", via, direct)
	}
	if _, err := q.Eval(logic.Eev(nil, logic.P("p"))); err == nil {
		t.Error("temporal operator did not error on the epistemic view")
	}
}
