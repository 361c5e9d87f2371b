package kripke

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitset"
)

// muddyCube builds the muddy children cube on n children the way
// muddy.New does: world w's bit i is child i's forehead, facts
// muddy0..muddy(n-1), and child i's view installed as dense class ids
// (w with bit i dropped). Two random columns p and q give the generic
// test formulas something to read.
func muddyCube(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	worlds := 1 << n
	b := NewBuilder(worlds, n)
	p, q := b.Column("p"), b.Column("q")
	for w := 0; w < worlds; w++ {
		if rng.Intn(2) == 0 {
			p.Add(w)
		}
		if rng.Intn(7) != 0 {
			q.Add(w)
		}
	}
	for i := 0; i < n; i++ {
		col := b.Column("muddy" + strconv.Itoa(i))
		ids := make([]int32, worlds)
		low := (1 << i) - 1
		for w := 0; w < worlds; w++ {
			if w>>i&1 != 0 {
				col.Add(w)
			}
			ids[w] = int32((w>>(i+1))<<i | w&low)
		}
		b.SetPartition(i, ids, worlds>>1)
	}
	return b.Build()
}

// genericPartition is a copy of p with the coset basis cleared and the
// generic kernel's word-spanning class list built, so the same classes run
// through the CSR kernel.
func genericPartition(p *partition) *partition {
	g := &partition{ids: p.ids, n: p.n, off: p.off, idx: p.idx, bits: p.bits}
	g.buildTwm(make([]int32, (len(p.ids)+63)>>6))
	return g
}

// span lists the XOR subgroup generated by gens.
func span(gens []int) []int {
	h := []int{0}
	for _, g := range gens {
		seen := make(map[int]bool, len(h))
		for _, x := range h {
			seen[x] = true
		}
		if seen[g] {
			continue
		}
		for _, x := range h {
			h = append(h, x^g)
		}
	}
	return h
}

// cosetIDs labels the cosets of the subgroup h of [0, 2^k) with dense
// first-occurrence ids.
func cosetIDs(k int, h []int) ([]int32, int) {
	ids := make([]int32, 1<<k)
	for w := range ids {
		ids[w] = -1
	}
	n := int32(0)
	for w := range ids {
		if ids[w] < 0 {
			for _, x := range h {
				ids[w^x] = n
			}
			n++
		}
	}
	return ids, int(n)
}

// TestCosetKernelMatchesDefinition pins the coset kernel. For random XOR
// subgroups (single-bit and multi-bit generators, 0–4 of them, 2^0 to
// 2^13 worlds) and for the muddy children cube's view, joint-view and
// reachability partitions (6 to 12 children), the partition must be
// detected as a coset partition, and its andKnowInto must leave dst as
// the class-id kernel, the generic CSR kernel over the same classes, and
// K from the definition (φ at every w⊕h, h ∈ H) all do. Near misses —
// two worlds swapped between classes, 2^k+1 worlds, unequal class sizes,
// a world-0 class not closed under XOR — must not be detected.
func TestCosetKernelMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var ks kernelScratch

	// check runs the four kernels on one coset partition of [0, 2^k) whose
	// subgroup is h, for φ and dst of several shapes.
	check := func(name string, k int, h []int, p *partition) {
		t.Helper()
		if !p.coset {
			t.Fatalf("%s: coset partition not detected", name)
		}
		if got := 1 << len(p.gens); got != len(h) {
			t.Fatalf("%s: basis spans %d worlds, want |H| = %d", name, got, len(h))
		}
		g := genericPartition(p)
		worlds := 1 << k
		// The test's own labeling of the cosets w⊕H must be p's classes.
		tid, tn := cosetIDs(k, h)
		if tn != p.n {
			t.Fatalf("%s: %d classes, want %d cosets", name, p.n, tn)
		}
		toCoset := make([]int32, p.n)
		for c := range toCoset {
			toCoset[c] = -1
		}
		for w, c := range p.ids {
			if toCoset[c] < 0 {
				toCoset[c] = tid[w]
			} else if toCoset[c] != tid[w] {
				t.Fatalf("%s: class %d is not one coset of H", name, c)
			}
		}
		random := func(density int) *bitset.Set {
			s := bitset.New(worlds)
			for w := 0; w < worlds; w++ {
				if rng.Intn(100) < density {
					s.Add(w)
				}
			}
			return s
		}
		// unionOfClasses is a φ that K leaves non-empty, with one world
		// knocked out of some draws.
		unionOfClasses := func() *bitset.Set {
			s := bitset.New(worlds)
			keep := make(map[int32]bool)
			for w := 0; w < worlds; w++ {
				id := p.ids[w]
				if _, ok := keep[id]; !ok {
					keep[id] = rng.Intn(2) == 0
				}
				if keep[id] {
					s.Add(w)
				}
			}
			if rng.Intn(2) == 0 {
				s.Remove(rng.Intn(worlds))
			}
			return s
		}
		allButOne := func() *bitset.Set {
			s := bitset.NewFull(worlds)
			s.Remove(rng.Intn(worlds))
			return s
		}
		phis := []*bitset.Set{
			random(0), random(100), random(2), random(50), random(98),
			allButOne(), unionOfClasses(), unionOfClasses(),
		}
		for i, phi := range phis {
			dst := random([]int{70, 100}[i%2])
			// K φ holds at w iff φ holds at every w⊕h, h ∈ H: one AND per
			// coset, read back at each of its worlds.
			within := make([]bool, tn)
			for c := range within {
				within[c] = true
			}
			for w := 0; w < worlds; w++ {
				if !phi.Contains(w) {
					within[tid[w]] = false
				}
			}
			def := dst.Clone()
			for w := 0; w < worlds; w++ {
				if !within[tid[w]] {
					def.Remove(w)
				}
			}
			refs := []struct {
				kernel string
				run    func(*bitset.Set)
			}{
				{"andKnowIDs", func(s *bitset.Set) { andKnowIDs(s, phi, p.ids, p.n, &ks) }},
				{"generic CSR kernel", func(s *bitset.Set) { g.andKnowInto(s, phi, &ks) }},
			}
			got := dst.Clone()
			p.andKnowInto(got, phi, &ks)
			if !got.Equal(def) {
				t.Fatalf("%s, φ %d: coset kernel = %s, definition %s", name, i, got, def)
			}
			for _, r := range refs {
				want := dst.Clone()
				r.run(want)
				if !got.Equal(want) {
					t.Fatalf("%s, φ %d: coset kernel = %s, %s %s", name, i, got, r.kernel, want)
				}
			}
		}
	}

	for trial := 0; trial < 120; trial++ {
		k := trial % 14
		var gens []int
		if k > 0 {
			for i := rng.Intn(5); i > 0; i-- {
				if rng.Intn(2) == 0 {
					gens = append(gens, 1<<rng.Intn(k)) // single bit
				} else {
					gens = append(gens, 1+rng.Intn(1<<k-1)) // any mask
				}
			}
		}
		h := span(gens)
		ids, n := cosetIDs(k, h)
		check("k="+strconv.Itoa(k)+" gens "+strconv.Itoa(len(gens)), k, h, newPartition(ids, n))
	}

	for n := 6; n <= 12; n++ {
		m := muddyCube(n, int64(n))
		tb := m.tables()
		var keyBuf []byte
		bitsOf := func(agents []int) []int {
			var h []int
			for _, a := range agents {
				h = append(h, 1<<a)
			}
			return span(h)
		}
		for _, a := range []int{0, n / 2, n - 1} {
			check("muddy:"+strconv.Itoa(n)+" K"+strconv.Itoa(a), n, bitsOf([]int{a}), m.part(tb, a))
		}
		for _, agents := range [][]int{{1, 3}, {0, n - 1}, tb.allAgents} {
			label := "muddy:" + strconv.Itoa(n) + " " + string(m.groupKey(nil, agents))
			check(label+" D", n, []int{0}, m.jointPartition(tb, agents, keyBuf))
			check(label+" C", n, bitsOf(agents), m.reachPartition(tb, agents, keyBuf))
		}
	}

	// Near misses over eight worlds (nine for the odd universe), the first
	// three cut from the cosets {0,2} {1,3} {4,6} {5,7} of H = {0, 2}.
	nearMisses := []struct {
		name string
		ids  []int32
		n    int
	}{
		{"two worlds swapped between classes", []int32{0, 2, 0, 1, 1, 3, 2, 3}, 4},
		{"2^k+1 worlds", []int32{0, 1, 0, 1, 2, 3, 2, 3, 4}, 5},
		{"unequal class sizes", []int32{0, 1, 0, 1, 1, 2, 1, 2}, 3},
		{"world-0 class not closed under XOR", []int32{0, 0, 0, 1, 0, 1, 1, 1}, 2},
	}
	for _, c := range nearMisses {
		p := newPartition(c.ids, c.n)
		if p.coset {
			t.Errorf("%s: detected as a coset partition with basis %v", c.name, p.gens)
			continue
		}
		phi := bitset.New(len(c.ids))
		for w := range c.ids {
			if w != 3 {
				phi.Add(w)
			}
		}
		got, want := bitset.NewFull(len(c.ids)), bitset.NewFull(len(c.ids))
		p.andKnowInto(got, phi, &ks)
		andKnowIDs(want, phi, c.ids, c.n, &ks)
		if !got.Equal(want) {
			t.Errorf("%s: kernel = %s, andKnowIDs %s", c.name, got, want)
		}
	}
}
