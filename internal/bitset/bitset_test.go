package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	tests := []struct {
		name string
		n    int
	}{
		{"zero", 0},
		{"one", 1},
		{"word boundary", 64},
		{"word boundary plus one", 65},
		{"large", 1000},
		{"negative clamps to zero", -5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New(tt.n)
			if !s.IsEmpty() {
				t.Errorf("New(%d) not empty", tt.n)
			}
			if got := s.Count(); got != 0 {
				t.Errorf("Count() = %d, want 0", got)
			}
		})
	}
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(100)
	if !s.IsEmpty() {
		t.Error("out-of-range Add modified the set")
	}
	if s.Contains(-1) || s.Contains(10) {
		t.Error("out-of-range Contains returned true")
	}
	s.Remove(-1) // must not panic
	s.Remove(99)
}

func TestFillAndNot(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		s := NewFull(n)
		if got := s.Count(); got != n {
			t.Errorf("NewFull(%d).Count() = %d", n, got)
		}
		if n > 0 && !s.IsFull() {
			t.Errorf("NewFull(%d) not full", n)
		}
		s.Not()
		if !s.IsEmpty() {
			t.Errorf("complement of full set (n=%d) not empty", n)
		}
		s.Not()
		if got := s.Count(); got != n {
			t.Errorf("double complement count = %d, want %d", got, n)
		}
	}
}

func TestBinaryOps(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i) // multiples of 3
	}

	inter := And(a, b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 == 0
		if inter.Contains(i) != want {
			t.Errorf("And: element %d membership = %v, want %v", i, inter.Contains(i), want)
		}
	}

	union := Or(a, b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if union.Contains(i) != want {
			t.Errorf("Or: element %d membership = %v, want %v", i, union.Contains(i), want)
		}
	}

	diff := AndNot(a, b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if diff.Contains(i) != want {
			t.Errorf("AndNot: element %d membership = %v, want %v", i, diff.Contains(i), want)
		}
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	a := New(50)
	b := New(50)
	a.Add(3)
	a.Add(7)
	b.Add(3)
	b.Add(7)
	b.Add(11)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.Intersects(b) {
		t.Error("a and b intersect")
	}
	c := New(50)
	c.Add(20)
	if a.Intersects(c) {
		t.Error("a and c are disjoint")
	}
	if !c.SubsetOf(b) == false {
		t.Error("c is not a subset of b")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(5)
	b := a.Clone()
	b.Add(6)
	if a.Contains(6) {
		t.Error("Clone shares storage with original")
	}
	if !b.Contains(5) {
		t.Error("Clone lost element")
	}
}

func TestEqual(t *testing.T) {
	a := New(70)
	b := New(70)
	if !a.Equal(b) {
		t.Error("two empty sets should be equal")
	}
	a.Add(69)
	if a.Equal(b) {
		t.Error("sets differ; Equal = true")
	}
	b.Add(69)
	if !a.Equal(b) {
		t.Error("identical sets; Equal = false")
	}
	c := New(71)
	c.Add(69)
	if a.Equal(c) {
		t.Error("different capacities should never be equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(200)
	want := []int{1, 64, 65, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements() = %v, want %v", got, want)
		}
	}
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 {
		t.Errorf("early stop visited %d elements, want 2", len(visited))
	}
}

func TestNext(t *testing.T) {
	s := New(200)
	s.Add(5)
	s.Add(64)
	s.Add(150)
	tests := []struct {
		from, want int
	}{
		{-3, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 150}, {150, 150}, {151, -1}, {500, -1},
	}
	for _, tt := range tests {
		if got := s.Next(tt.from); got != tt.want {
			t.Errorf("Next(%d) = %d, want %d", tt.from, got, tt.want)
		}
	}
	// NextBefore stops at its bound, and reports the bound when the range
	// holds no element.
	bounded := []struct{ from, hi, want int }{
		{0, 5, 5}, {0, 6, 5}, {6, 64, 64}, {6, 65, 64}, {65, 150, 150}, {65, 300, 150}, {151, 300, 300}, {70, 70, 70},
	}
	for _, tt := range bounded {
		if got := s.NextBefore(tt.from, tt.hi); got != tt.want {
			t.Errorf("NextBefore(%d, %d) = %d, want %d", tt.from, tt.hi, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if got := s.String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
	s.Add(1)
	s.Add(3)
	if got := s.String(); got != "{1, 3}" {
		t.Errorf("String() = %q, want {1, 3}", got)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched capacity did not panic")
		}
	}()
	a := New(10)
	b := New(11)
	a.And(b)
}

// randomSet builds a reference map-based set and the bitset under test from
// the same membership vector.
func randomSet(rng *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			s.Add(i)
			ref[i] = true
		}
	}
	return s, ref
}

// TestQuickAgainstMapModel cross-checks all set algebra against a map-based
// reference model on random inputs.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, ra := randomSet(rng, n)
		b, rb := randomSet(rng, n)

		union := Or(a, b)
		inter := And(a, b)
		diff := AndNot(a, b)
		comp := Not(a)

		for i := 0; i < n; i++ {
			if union.Contains(i) != (ra[i] || rb[i]) {
				return false
			}
			if inter.Contains(i) != (ra[i] && rb[i]) {
				return false
			}
			if diff.Contains(i) != (ra[i] && !rb[i]) {
				return false
			}
			if comp.Contains(i) != !ra[i] {
				return false
			}
		}
		// De Morgan: ¬(a ∪ b) == ¬a ∩ ¬b
		lhs := Not(Or(a, b))
		rhs := And(Not(a), Not(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountConsistency verifies Count agrees with element iteration.
func TestQuickCountConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		s, ref := randomSet(rng, n)
		if s.Count() != len(ref) {
			return false
		}
		els := s.Elements()
		if len(els) != len(ref) {
			return false
		}
		for _, e := range els {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnd(b *testing.B) {
	x := NewFull(1 << 16)
	y := NewFull(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkCount(b *testing.B) {
	x := NewFull(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

// TestAddRange checks the word-level range insertion against a per-bit
// reference across word boundaries: unaligned ends, single-word spans,
// word-aligned ends (hi%64 == 0), whole-universe spans, empty and
// out-of-range intervals, into an empty set and around existing members.
func TestAddRange(t *testing.T) {
	cases := []struct{ n, lo, hi int }{
		{10, 2, 7},     // single word, interior
		{64, 0, 64},    // exactly one full word
		{70, 60, 66},   // straddles a word boundary
		{200, 3, 64},   // hi on a word boundary
		{200, 64, 130}, // lo on a word boundary
		{200, 0, 200},  // whole universe
		{200, 150, 150},
		{200, 150, 140}, // empty (lo >= hi)
		{200, -5, 10},   // clamped low
		{200, 190, 300}, // clamped high
		{130, 1, 129},   // spans three words, both ends unaligned
	}
	for _, tc := range cases {
		added := New(tc.n)
		added.AddRange(tc.lo, tc.hi)
		want := New(tc.n)
		for i := tc.lo; i < tc.hi; i++ {
			want.Add(i)
		}
		if !added.Equal(want) || added.Count() != want.Count() {
			t.Errorf("AddRange(n=%d, %d, %d) = %s, want %s", tc.n, tc.lo, tc.hi, added, want)
		}
		// Around the interval's complement, AddRange fills exactly the gap.
		got := want.Clone()
		got.Not()
		got.AddRange(tc.lo, tc.hi)
		if !got.IsFull() {
			t.Errorf("AddRange(n=%d, %d, %d) over the complement = %s, want full", tc.n, tc.lo, tc.hi, got)
		}
	}
}
