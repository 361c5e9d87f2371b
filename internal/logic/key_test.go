package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyClosedness(t *testing.T) {
	tests := []struct {
		src    string
		closed bool
	}{
		{"p", true},
		{"K0 (p & q)", true},
		{"nu X . E (p & X)", true}, // X is bound inside
		{"mu Y . p | E Y", true},
		{"nu X . E (p & (mu Y . X | Y))", true},
		{"C{0,1} p", true},
	}
	for _, tt := range tests {
		if _, closed := Key(MustParse(tt.src)); closed != tt.closed {
			t.Errorf("Key(%q) closed = %v, want %v", tt.src, closed, tt.closed)
		}
	}
	// Free variables make a formula open; AppendKey must track shadowing.
	if _, closed := Key(X("X")); closed {
		t.Error("bare variable should be open")
	}
	open := Conj(P("p"), X("Z"))
	if _, closed := Key(open); closed {
		t.Error("conjunction with a free variable should be open")
	}
	// Same-named binder in a sibling does not capture.
	f := Conj(GFP("X", Conj(P("p"), X("X"))), X("X"))
	if _, closed := Key(f); closed {
		t.Error("free X next to a bound X should leave the formula open")
	}
}

func TestKeyAgreesWithEqual(t *testing.T) {
	// Every operator over every group and integer against every other: the
	// one Modal node must not let two operators share a key prefix.
	ms := modalsOver(P("p"))
	for i, a := range ms {
		for j, b := range ms {
			ka, kb := key(a), key(b)
			if Equal(a, b) != (i == j) || (ka == kb) != (i == j) {
				t.Errorf("%s vs %s: Equal = %v, keys %q and %q", a, b, Equal(a, b), ka, kb)
			}
		}
	}

	gen := func(rng *rand.Rand, depth int) Formula {
		return randomFormulaForKeys(rng, depth)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen(rng, 3)
		b := gen(rng, 3)
		ka, _ := Key(a)
		kb, _ := Key(b)
		if Equal(a, b) != (ka == kb) {
			t.Logf("a = %s, b = %s, ka = %q, kb = %q", a, b, ka, kb)
			return false
		}
		// A formula always matches its own key, and keys are stable.
		ka2, _ := Key(a)
		return ka == ka2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// modalsOver returns every Modal operator applied to f: K over agents 0
// and 1, ◇ and □, and each group operator over nil, {0} and {0,1}, with
// ε and T of 0 and 1.
func modalsOver(f Formula) []Formula {
	out := []Formula{K(0, f), K(1, f), Ev(f), Alw(f)}
	for _, g := range []Group{nil, NewGroup(0), NewGroup(0, 1)} {
		out = append(out, S(g, f), E(g, f), D(g, f), C(g, f), Eev(g, f), Cev(g, f))
		for n := 0; n < 2; n++ {
			out = append(out, Eeps(g, n, f), Ceps(g, n, f), Et(g, n, f), Ct(g, n, f))
		}
	}
	return out
}

// randomFormulaForKeys draws from a small pool so that random pairs collide
// often enough to exercise the equal-keys direction. Modal nodes come from
// modalsOver, so every operator is drawn, with nil and explicit groups and
// with varied ε and T.
func randomFormulaForKeys(rng *rand.Rand, depth int) Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return P("p")
		case 1:
			return P("q")
		case 2:
			return True
		default:
			return X("X")
		}
	}
	sub := func() Formula { return randomFormulaForKeys(rng, depth-1) }
	switch rng.Intn(10) {
	case 0:
		return Neg(sub())
	case 1:
		return And{Fs: []Formula{sub(), sub()}}
	case 2:
		return Or{Fs: []Formula{sub(), sub()}}
	case 3:
		return Imp(sub(), sub())
	case 4:
		return Equiv(sub(), sub())
	case 5:
		return GFP("X", Conj(sub(), X("X")))
	case 6:
		return LFP("X", Disj(sub(), X("X")))
	default:
		ms := modalsOver(sub())
		return ms[rng.Intn(len(ms))]
	}
}
