package logic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestGroupNormalization(t *testing.T) {
	g := NewGroup(3, 1, 2, 1, 3)
	want := Group{1, 2, 3}
	if !g.Equal(want) {
		t.Errorf("NewGroup = %v, want %v", g, want)
	}
	if !g.Contains(2) || g.Contains(0) {
		t.Error("Contains wrong")
	}
	var all Group
	if !all.Contains(99) {
		t.Error("nil group should contain every agent")
	}
	if all.Equal(Group{}) {
		t.Error("nil group must differ from empty explicit group")
	}
}

func TestStringRendering(t *testing.T) {
	g01 := NewGroup(0, 1)
	tests := []struct {
		f    Formula
		want string
	}{
		{P("m"), "m"},
		{True, "true"},
		{Neg(P("m")), "~m"},
		{Conj(P("a"), P("b")), "a & b"},
		{Disj(P("a"), P("b"), P("c")), "a | b | c"},
		{Imp(P("a"), P("b")), "a -> b"},
		{Equiv(P("a"), P("b")), "a <-> b"},
		{K(1, P("m")), "K1 m"},
		{K(0, K(1, P("m"))), "K0 K1 m"},
		{E(g01, P("m")), "E{0,1} m"},
		{E(nil, P("m")), "E m"},
		{C(g01, P("m")), "C{0,1} m"},
		{D(nil, P("m")), "D m"},
		{S(nil, P("m")), "S m"},
		{Eeps(g01, 2, P("m")), "Ee[2]{0,1} m"},
		{Ceps(nil, 3, P("m")), "Ce[3] m"},
		{Eev(nil, P("m")), "Ev m"},
		{Cev(g01, P("m")), "Cv{0,1} m"},
		{Et(nil, 5, P("m")), "Et[5] m"},
		{Ct(nil, 7, P("m")), "Ct[7] m"},
		{Ev(P("m")), "<> m"},
		{Alw(P("m")), "[] m"},
		{GFP("X", E(nil, Conj(P("m"), X("X")))), "nu X . E (m & X)"},
		{Conj(Disj(P("a"), P("b")), P("c")), "(a | b) & c"},
		{Imp(Imp(P("a"), P("b")), P("c")), "(a -> b) -> c"},
		{Neg(Conj(P("a"), P("b"))), "~(a & b)"},
		{K(2, Disj(P("a"), P("b"))), "K2 (a | b)"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseBasics(t *testing.T) {
	tests := []struct {
		in   string
		want Formula
	}{
		{"m", P("m")},
		{"true", True},
		{"false", False},
		{"~m", Neg(P("m"))},
		{"a & b & c", And{Fs: []Formula{P("a"), P("b"), P("c")}}},
		{"a | b", Disj(P("a"), P("b"))},
		{"a -> b -> c", Imp(P("a"), Imp(P("b"), P("c")))},
		{"a <-> b", Equiv(P("a"), P("b"))},
		{"K0 m", K(0, P("m"))},
		{"K12 m", K(12, P("m"))},
		{"E{0,1} m", E(NewGroup(0, 1), P("m"))},
		{"E m", E(nil, P("m"))},
		{"E^3 m", EK(nil, 3, P("m"))},
		{"E^2{1,2} m", EK(NewGroup(1, 2), 2, P("m"))},
		{"C m", C(nil, P("m"))},
		{"D{0,2} p", D(NewGroup(0, 2), P("p"))},
		{"S p", S(nil, P("p"))},
		{"Ee[2] m", Eeps(nil, 2, P("m"))},
		{"Ce[4]{0,1} m", Ceps(NewGroup(0, 1), 4, P("m"))},
		{"Ev m", Eev(nil, P("m"))},
		{"Cv m", Cev(nil, P("m"))},
		{"Et[3] m", Et(nil, 3, P("m"))},
		{"Ct[9]{1,3} m", Ct(NewGroup(1, 3), 9, P("m"))},
		{"<> m", Ev(P("m"))},
		{"[] m", Alw(P("m"))},
		{"nu X . E (m & X)", GFP("X", E(nil, Conj(P("m"), X("X"))))},
		{"mu Y . m | E Y", LFP("Y", Disj(P("m"), E(nil, X("Y"))))},
		{"(a & b) | c", Disj(Conj(P("a"), P("b")), P("c"))},
		{"a & (b | c)", Conj(P("a"), Disj(P("b"), P("c")))},
		{"K0 K1 sent_m", K(0, K(1, P("sent_m")))},
		{"  m  ", P("m")},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			if !Equal(got, tt.want) {
				t.Errorf("Parse(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestParsePrecedence(t *testing.T) {
	// & binds tighter than |, which binds tighter than ->, which binds
	// tighter than <->. Unary operators bind tightest.
	f := MustParse("a & b | c -> d <-> e")
	want := Equiv(
		Imp(Disj(Conj(P("a"), P("b")), P("c")), P("d")),
		P("e"),
	)
	if !Equal(f, want) {
		t.Errorf("precedence parse = %s, want %s", f, want)
	}

	g := MustParse("~K0 a & b")
	wantG := Conj(Neg(K(0, P("a"))), P("b"))
	if !Equal(g, wantG) {
		t.Errorf("unary precedence parse = %s, want %s", g, wantG)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"&",
		"a &",
		"(a",
		"a)",
		"K m",          // K without index parses K as... should fail or be a var? K is uppercase => Var, then m is trailing
		"E^0 m",        // k must be >= 1
		"Ee m",         // missing [eps]
		"Ee[2 m",       // unclosed bracket
		"E{0, m",       // bad group
		"nu X",         // missing body
		"nu X . ~X",    // negative occurrence
		"mu X . K0 ~X", // negative occurrence under K
	}
	bad = append(bad,
		fmt.Sprintf("E^%d m", MaxEPower+1),                       // k must be <= MaxEPower
		fmt.Sprintf("E^9 E^%d m", MaxEPower-8),                   // so must the sum of the powers,
		strings.Repeat(fmt.Sprintf("E^%d ", MaxEPower), 150)+"m", // over the whole formula
		strings.Repeat("K0 ", MaxDepth)+"m",                      // nested past MaxDepth
	)
	for _, in := range bad {
		if f, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %s, want error", in, f)
		}
	}
}

// TestParseEPowerBudget: E^k powers may sum to MaxEPower over a formula
// (TestParseErrors has the sums past it); a plain E does not count.
func TestParseEPowerBudget(t *testing.T) {
	half := MaxEPower / 2
	f, err := Parse(fmt.Sprintf("E^%d E^%d m & E q", half, half))
	if err != nil {
		t.Fatal(err)
	}
	if want := Conj(EK(nil, MaxEPower, P("m")), E(nil, P("q"))); !Equal(f, want) {
		t.Errorf("Parse(E^%d E^%d m & E q) = %s, want %s", half, half, f, want)
	}
}

// TestParseDepthCap: Parse counts prefix operators (each E of an E^k),
// binders, parentheses, operands and each <-> or -> towards MaxDepth, and
// accepts a formula exactly at the cap.
func TestParseDepthCap(t *testing.T) {
	within := []string{
		strings.Repeat("K0 ", MaxDepth-1) + "m",
		strings.Repeat("K0 ", MaxDepth-1-MaxEPower) + fmt.Sprintf("E^%d m", MaxEPower),
		strings.Repeat("(", MaxDepth-1) + "m" + strings.Repeat(")", MaxDepth-1),
		strings.Repeat("m -> ", MaxDepth-1) + "m",
		strings.Repeat("m <-> ", MaxDepth-1) + "m",
		strings.Repeat("nu X . ", MaxDepth-1) + "X",
		strings.Repeat("m & ", 4*MaxDepth) + "m", // a flat conjunction is one level
	}
	for _, in := range within {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%.40q...) = %v, want success", in, err)
		}
	}
	past := []string{
		strings.Repeat("K0 ", MaxDepth) + "m",
		strings.Repeat("K0 ", MaxDepth-MaxEPower) + fmt.Sprintf("E^%d m", MaxEPower),
		strings.Repeat("(", MaxDepth) + "m" + strings.Repeat(")", MaxDepth),
		strings.Repeat("m -> ", MaxDepth) + "m",
		strings.Repeat("m <-> ", MaxDepth) + "m",
		strings.Repeat("nu X . ", MaxDepth) + "X",
		strings.Repeat("~(m & ", MaxDepth/2) + "m" + strings.Repeat(")", MaxDepth/2),
	}
	for _, in := range past {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("Parse(%.40q...) = %v, want a nesting error", in, err)
		}
	}
}

// TestParseIffChainUnderBinder: the positivity check visits each side of
// an equivalence once, so a long <-> chain under a binder parses in time
// linear in its length. The chain in the FuzzParse corpus is this one.
func TestParseIffChainUnderBinder(t *testing.T) {
	chain := strings.Repeat("p <-> ", 63)
	done := make(chan [2]error, 1)
	go func() {
		_, errIn := Parse("nu X . " + chain + "X")
		_, errOut := Parse("nu X . (" + chain + "p) & X")
		done <- [2]error{errIn, errOut}
	}()
	select {
	case errs := <-done:
		if errs[0] == nil {
			t.Error("X under <-> is not positive, but the chain parsed")
		}
		if errs[1] != nil {
			t.Errorf("X outside the chain: %v", errs[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parsing a 64-term <-> chain under nu did not finish in 10s")
	}
}

// TestParseLongChain: an & or | chain is flattened once when it ends, so
// a megabyte-long chain parses in time linear in its length.
func TestParseLongChain(t *testing.T) {
	const n = 1 << 19 // "p&" is two bytes: a 1 MiB chain
	done := make(chan [2]Formula, 1)
	go func() {
		and, errAnd := Parse("p" + strings.Repeat("&p", n-1))
		or, errOr := Parse("p" + strings.Repeat("|p", n-1))
		if errAnd != nil || errOr != nil {
			t.Errorf("Parse: %v, %v", errAnd, errOr)
		}
		done <- [2]Formula{and, or}
	}()
	select {
	case fs := <-done:
		if a, ok := fs[0].(And); !ok || len(a.Fs) != n {
			t.Errorf("& chain parsed to %T, want an And of %d operands", fs[0], n)
		}
		if o, ok := fs[1].(Or); !ok || len(o.Fs) != n {
			t.Errorf("| chain parsed to %T, want an Or of %d operands", fs[1], n)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("parsing a %d-operand chain did not finish in 10s", n)
	}
}

// TestParseChainShapes: chains of & and | flatten exactly as folding
// Conj and Disj one operand at a time would, whatever they meet.
func TestParseChainShapes(t *testing.T) {
	a, b, c, d, e := P("a"), P("b"), P("c"), P("d"), P("e")
	for in, want := range map[string]Formula{
		"a & b & c":             Conj(a, b, c),
		"a & (b & c) & d":       Conj(a, b, c, d),
		"(a & b) & (c & d)":     Conj(a, b, c, d),
		"a & b | c & d | e":     Disj(Conj(a, b), Conj(c, d), e),
		"a | (b | c) | d & e":   Disj(a, b, c, Conj(d, e)),
		"a | b -> c & d & e":    Imp(Disj(a, b), Conj(c, d, e)),
		"a & b <-> c | d | e":   Equiv(Conj(a, b), Disj(c, d, e)),
		"a & b <-> c <-> d & e": Equiv(Equiv(Conj(a, b), c), Conj(d, e)),
		"~a & b & ~(c | d)":     Conj(Neg(a), b, Neg(Disj(c, d))),
		"a":                     a,
	} {
		if got := MustParse(in); !Equal(got, want) {
			t.Errorf("Parse(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestParseIffNonAssoc(t *testing.T) {
	// a <-> b <-> c parses left-to-right as (a <-> b) <-> c.
	f := MustParse("a <-> b <-> c")
	want := Equiv(Equiv(P("a"), P("b")), P("c"))
	if !Equal(f, want) {
		t.Errorf("got %s, want %s", f, want)
	}
}

func TestEKZero(t *testing.T) {
	if !Equal(EK(nil, 0, P("m")), P("m")) {
		t.Error("EK(g, 0, m) should be m")
	}
	if !Equal(EK(nil, 2, P("m")), E(nil, E(nil, P("m")))) {
		t.Error("EK(g, 2, m) should be E E m")
	}
}

func TestFreeVarsAndPolarity(t *testing.T) {
	// Key reports a formula closed iff it has no free variables.
	f := MustParse("nu X . E (m & X)")
	if _, closed := Key(f); !closed {
		t.Errorf("%s has free variables, want none", f)
	}
	body := E(nil, Conj(P("m"), X("X")))
	if _, closed := Key(body); closed {
		t.Errorf("%s is closed, want X free", body)
	}
	if p := PolarityOf(body, "X"); p != PolarityPositive {
		t.Errorf("PolarityOf = %v, want positive", p)
	}
	if p := PolarityOf(Neg(X("X")), "X"); p != PolarityNegative {
		t.Errorf("PolarityOf(~X) = %v, want negative", p)
	}
	if p := PolarityOf(Imp(X("X"), X("X")), "X"); p != PolarityMixed {
		t.Errorf("PolarityOf(X -> X) = %v, want mixed", p)
	}
	if p := PolarityOf(Imp(X("X"), P("m")), "X"); p != PolarityNegative {
		t.Errorf("PolarityOf(X -> m) = %v, want negative", p)
	}
	if p := PolarityOf(Equiv(P("m"), K(0, X("X"))), "X"); p != PolarityMixed {
		t.Errorf("PolarityOf(m <-> K0 X) = %v, want mixed", p)
	}
	if p := PolarityOf(Equiv(P("m"), P("q")), "X"); p != PolarityNone {
		t.Errorf("PolarityOf(m <-> q) = %v, want none", p)
	}
	if p := PolarityOf(P("m"), "X"); p != PolarityNone {
		t.Errorf("PolarityOf(m) = %v, want none", p)
	}
	// Shadowing: inner nu binds X, so outer occurrence check sees none.
	shadow := GFP("X", X("X"))
	if p := PolarityOf(shadow, "X"); p != PolarityNone {
		t.Errorf("PolarityOf(shadowed) = %v, want none", p)
	}
}

func TestSubstitute(t *testing.T) {
	// The fixed point axiom shape: (nu X . E(m & X))  unfolds to
	// E(m & nu X . E(m & X)).
	nu := GFP("X", E(nil, Conj(P("m"), X("X")))).(Nu)
	unfolded := Substitute(nu.Body, "X", nu)
	want := E(nil, Conj(P("m"), nu))
	if !Equal(unfolded, want) {
		t.Errorf("unfold = %s, want %s", unfolded, want)
	}
	// Bound occurrences are not substituted.
	f := Conj(X("X"), GFP("X", X("X")))
	got := Substitute(f, "X", P("m"))
	want2 := Conj(P("m"), GFP("X", X("X")))
	if !Equal(got, want2) {
		t.Errorf("Substitute = %s, want %s", got, want2)
	}
}

func TestWellFormed(t *testing.T) {
	good := GFP("X", E(nil, Conj(P("m"), X("X"))))
	if err := WellFormed(good); err != nil {
		t.Errorf("WellFormed(%s) = %v, want nil", good, err)
	}
	bad := GFP("X", Neg(X("X")))
	if err := WellFormed(bad); err == nil {
		t.Errorf("WellFormed(%s) = nil, want error", bad)
	}
	// Double negation is positive.
	dn := GFP("X", Neg(Neg(X("X"))))
	if err := WellFormed(dn); err != nil {
		t.Errorf("WellFormed(%s) = %v, want nil", dn, err)
	}
}

// genFormula generates a random well-formed closed formula.
func genFormula(rng *rand.Rand, depth int, vars []string) Formula {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return P([]string{"m", "p", "q", "sent_m"}[rng.Intn(4)])
		case 1:
			return Truth{Value: rng.Intn(2) == 0}
		default:
			if len(vars) > 0 {
				return Var{Name: vars[rng.Intn(len(vars))]}
			}
			return P("m")
		}
	}
	g := []Group{nil, NewGroup(0, 1), NewGroup(0, 1, 2), NewGroup(2)}[rng.Intn(4)]
	sub := func() Formula { return genFormula(rng, depth-1, vars) }
	// Negation and implication antecedents must not contain free fixpoint
	// variables (to preserve positivity); generate those with no vars.
	subNoVars := func() Formula { return genFormula(rng, depth-1, nil) }
	switch rng.Intn(14) {
	case 0:
		return Neg(subNoVars())
	case 1:
		return Conj(sub(), sub())
	case 2:
		return Disj(sub(), sub())
	case 3:
		return Imp(subNoVars(), sub())
	case 4:
		return K(Agent(rng.Intn(3)), sub())
	case 5:
		return E(g, sub())
	case 6:
		return C(g, sub())
	case 7:
		return D(g, sub())
	case 8:
		return S(g, sub())
	case 9:
		return Eeps(g, 1+rng.Intn(3), sub())
	case 10:
		return Cev(g, sub())
	case 11:
		return Et(g, rng.Intn(5), sub())
	case 12:
		name := string(rune('X' + rng.Intn(3)))
		inner := genFormula(rng, depth-1, append(append([]string{}, vars...), name))
		return GFP(name, inner)
	default:
		return Ev(sub())
	}
}

// TestQuickRoundTrip: parsing the printed form yields a structurally equal
// formula.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := genFormula(rng, 1+rng.Intn(4), nil)
		text := orig.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Logf("Parse(%q) failed: %v", text, err)
			return false
		}
		if !Equal(parsed, orig) {
			t.Logf("round trip mismatch: %q reparsed as %q", text, parsed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickGeneratedWellFormed: the generator respects positivity so parser
// acceptance should always hold.
func TestQuickGeneratedWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := genFormula(rng, 1+rng.Intn(5), nil)
		return WellFormed(orig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseLongConjunction(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString("p")
	}
	f, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	and, ok := f.(And)
	if !ok || len(and.Fs) != 100 {
		t.Errorf("expected flat 100-ary conjunction, got %T with %d children", f, len(and.Fs))
	}
}

func BenchmarkParse(b *testing.B) {
	const src = "nu X . E{0,1} ((m & K0 (p -> q)) & X) & C{0,1,2} sent_m"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkString(b *testing.B) {
	f := MustParse("nu X . E{0,1} ((m & K0 (p -> q)) & X) & C{0,1,2} sent_m")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.String()
	}
}
