package kripke

import (
	"math/bits"

	"repro/internal/bitset"
)

// partition is the word-level form of a partition of the worlds: a dense
// class id per world plus, per class, the sparse list of non-zero 64-bit
// words of the class's membership mask in CSR layout (off[c]..off[c+1]
// index into idx/bits). Storing only non-zero words keeps the tables O(n)
// overall, while letting the kernels AND/OR whole words instead of probing
// individual bits.
//
// The same representation serves all three knowledge relations: an agent's
// view partition (K_i), the common refinement of a group's partitions
// (D_G), and the G-reachability components of Section 6 (C_G).
//
// Beside the ids and the class lists, a table holds one kernel aid. A
// coset partition (see cosetBasis) carries the basis of its XOR subgroup,
// and its kernel folds φ's words along the basis instead of visiting
// classes. Any other table on a universe of at least minTwmWords words
// lists, per bitset word, the classes that intersect it and span more than
// one word, so a word wholly outside φ is cleared without visiting its
// worlds.
type partition struct {
	ids  []int32 // world -> dense class id
	n    int     // number of classes
	off  []int32 // n+1 offsets into idx/bits
	idx  []int32 // bitset word index of each mask word
	bits []uint64

	// coset reports that the classes are the cosets of the XOR subgroup
	// of world indices spanned by gens (empty for the discrete partition).
	coset bool
	gens  []int

	// Word-spanning classes per bitset word, nil on a coset partition or a
	// universe under minTwmWords words.
	twmOff []int32 // numWords+1 offsets into twmID
	twmID  []int32
}

// minTwmWords is the universe size (in bitset words) below which a generic
// table gets no word-spanning class list: on models this small the per-bit
// probe is as fast as clearing whole words, and the experiments that
// rebuild models in a tight loop (point models per run system, announcement
// chains) should not pay table-construction cost they never amortize.
const minTwmWords = 5

// newPartition builds the CSR mask tables from dense class ids over
// [0, len(ids)) with n classes.
func newPartition(ids []int32, n int) *partition {
	p := &partition{ids: ids, n: n}
	numWords := (len(ids) + 63) >> 6
	// One scratch slab: per-class last-word-seen and write cursors, plus
	// per-word cursors for the word-spanning class list.
	scratch := make([]int32, 2*n+numWords)
	last, cur, wcur := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for i := range last {
		last[i] = -1
	}
	// First pass: count distinct bitset words per class.
	counts := make([]int32, n+1)
	for w, id := range ids {
		if wi := int32(w >> 6); last[id] != wi {
			last[id] = wi
			counts[id+1]++
		}
	}
	for c := 0; c < n; c++ {
		counts[c+1] += counts[c]
	}
	p.off = counts
	total := p.off[n]
	p.idx = make([]int32, total)
	p.bits = make([]uint64, total)
	// Second pass: fill the per-class word lists.
	copy(cur, p.off[:n])
	for i := range last {
		last[i] = -1
	}
	for w, id := range ids {
		wi := int32(w >> 6)
		if last[id] != wi {
			last[id] = wi
			p.idx[cur[id]] = wi
			p.bits[cur[id]] = 1 << (uint(w) & 63)
			cur[id]++
		} else {
			p.bits[cur[id]-1] |= 1 << (uint(w) & 63)
		}
	}
	if p.gens, p.coset = cosetBasis(ids, n); p.coset {
		return p // the coset kernel reads no word-level table
	}
	if numWords >= minTwmWords {
		p.buildTwm(wcur)
	}
	return p
}

// cosetBasis reports whether the partition given by dense ids (n classes)
// is the coset partition of an XOR subgroup H of the world indices — the
// shape of the muddy children cube, where child i's class of w is
// {w, w⊕2^i} and every joint view and reachability component is again a
// coset — and returns a basis of H. The test: the universe has 2^k
// worlds, world 0's class is closed under XOR (it has 2^d members and
// rank d, so it is the span of the basis elimination finds), there are
// 2^(k-d) classes, and ids[w⊕h] == ids[w] for every world w and basis
// vector h. The last check makes every class a union of H-cosets, and the
// class count then leaves room for exactly one coset each. It costs
// O(d·worlds), once per table.
func cosetBasis(ids []int32, n int) ([]int, bool) {
	size := len(ids)
	if size == 0 || size&(size-1) != 0 {
		return nil, false
	}
	// Gaussian elimination over GF(2): pivot[b] is the basis vector whose
	// highest set bit is b.
	var pivot [32]int
	rank, members := 0, 0
	for w, id := range ids {
		if id != ids[0] {
			continue
		}
		members++
		for v := w; v != 0; {
			b := bits.Len(uint(v)) - 1
			if pivot[b] == 0 {
				pivot[b] = v
				rank++
				break
			}
			v ^= pivot[b]
		}
	}
	if members != 1<<rank || n<<rank != size {
		return nil, false
	}
	gens := make([]int, 0, rank)
	for _, v := range pivot {
		if v != 0 {
			gens = append(gens, v)
		}
	}
	if n > 1 {
		for _, h := range gens {
			for w, id := range ids {
				if ids[w^h] != id {
					return nil, false
				}
			}
		}
	}
	return gens, true
}

// buildTwm fills the word-spanning class list per word; wcur is numWords
// cursors of scratch.
func (p *partition) buildTwm(wcur []int32) {
	numWords := len(wcur)
	p.twmOff = make([]int32, numWords+1)
	for c := int32(0); c < int32(p.n); c++ {
		if span := p.off[c+1] - p.off[c]; span > 1 {
			for k := p.off[c]; k < p.off[c+1]; k++ {
				p.twmOff[p.idx[k]+1]++
			}
		}
	}
	for wi := 0; wi < numWords; wi++ {
		p.twmOff[wi+1] += p.twmOff[wi]
	}
	p.twmID = make([]int32, p.twmOff[numWords])
	copy(wcur, p.twmOff[:numWords])
	for c := int32(0); c < int32(p.n); c++ {
		if span := p.off[c+1] - p.off[c]; span > 1 {
			for k := p.off[c]; k < p.off[c+1]; k++ {
				wi := p.idx[k]
				p.twmID[wcur[wi]] = c
				wcur[wi]++
			}
		}
	}
}

// kernelScratch is the reusable working state of the partition kernels: an
// epoch-stamped class marker, so deduplicating the failing classes needs
// no per-call clearing, and the words the coset kernel folds.
type kernelScratch struct {
	stamp []int32
	epoch int32
	fold  []uint64
}

// ensure sizes the stamp table for partitions of up to n classes.
func (ks *kernelScratch) ensure(n int) {
	if len(ks.stamp) < n {
		ks.stamp = make([]int32, n)
		ks.epoch = 0
	}
}

// bump starts a new stamping round, clearing the table on epoch wraparound.
func (ks *kernelScratch) bump() {
	ks.epoch++
	if ks.epoch <= 0 {
		for i := range ks.stamp {
			ks.stamp[i] = 0
		}
		ks.epoch = 1
	}
}

// andKnowIDs is andKnowInto for a partition given by its dense class ids
// alone (n classes), before any table is built: one pass over ¬phi stamps
// the failing classes, one pass over dst clears the worlds of stamped
// classes. Each call costs O(worlds), with no table to build or keep; see
// knowIDsUses for when the table is built instead.
func andKnowIDs(dst, phi *bitset.Set, ids []int32, n int, ks *kernelScratch) {
	ks.ensure(n)
	ks.bump()
	epoch, stamp := ks.epoch, ks.stamp
	failing := false
	for wi, w := range phi.Words() {
		base := wi << 6
		for inv := ^w & phi.WordMask(wi); inv != 0; inv &= inv - 1 {
			stamp[ids[base+bits.TrailingZeros64(inv)]] = epoch
			failing = true
		}
	}
	if !failing {
		return
	}
	dw := dst.Words()
	for wi, d := range dw {
		base := wi << 6
		for x := d; x != 0; x &= x - 1 {
			if b := bits.TrailingZeros64(x); stamp[ids[base+b]] == epoch {
				d &^= 1 << uint(b)
			}
		}
		dw[wi] = d
	}
}

// knowInto writes into dst the worlds whose whole class under p lies
// inside phi — the set-level K operator for this partition. dst and phi
// must have capacity len(p.ids) and must not alias.
func (p *partition) knowInto(dst, phi *bitset.Set, ks *kernelScratch) {
	dst.Fill()
	p.andKnowInto(dst, phi, ks)
}

// andKnowInto intersects dst in place with the knowInto result: since the
// classes cover the universe, K(phi) is the complement of the union of the
// masks of "failing" classes (those with a world outside phi). The kernel
// scans only the non-full words of phi. A word wholly outside phi fails
// every class intersecting it, so, when the table lists word-spanning
// classes, the word is zeroed and only those classes are removed outside
// it. In any other word the ids of the worlds outside phi are probed.
// Each failing class is removed with whole-word AND-NOTs of its mask,
// deduplicated by epoch stamp. Cost is O(words + work near ¬phi) rather
// than O(worlds). A coset partition takes andKnowCoset instead.
func (p *partition) andKnowInto(dst, phi *bitset.Set, ks *kernelScratch) {
	if p.coset {
		p.andKnowCoset(dst, phi, ks)
		return
	}
	ks.ensure(p.n)
	ks.bump()
	epoch := ks.epoch
	stamp := ks.stamp
	dw := dst.Words()
	for wi, w := range phi.Words() {
		full := phi.WordMask(wi)
		inv := ^w & full
		if inv == 0 {
			continue
		}
		if inv == full && p.twmOff != nil {
			dw[wi] = 0
			for k := p.twmOff[wi]; k < p.twmOff[wi+1]; k++ {
				if id := p.twmID[k]; stamp[id] != epoch {
					stamp[id] = epoch
					for j := p.off[id]; j < p.off[id+1]; j++ {
						dw[p.idx[j]] &^= p.bits[j]
					}
				}
			}
			continue
		}
		base := wi << 6
		for ; inv != 0; inv &= inv - 1 {
			if id := p.ids[base+bits.TrailingZeros64(inv)]; stamp[id] != epoch {
				stamp[id] = epoch
				for j := p.off[id]; j < p.off[id+1]; j++ {
					dw[p.idx[j]] &^= p.bits[j]
				}
			}
		}
	}
}

// swapMasks[j] selects the low half of every 2^(j+1)-bit group of a word,
// so ((x&m)<<2^j | (x>>2^j)&m) swaps bit b with bit b⊕2^j.
var swapMasks = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// andKnowCoset is andKnowInto for a coset partition: K φ(w) is
// ∧_{h∈H} φ(w⊕h), so folding a copy of φ's words once per basis vector g,
// x(w) ∧= x(w⊕g), leaves K φ after the last one. A generator's bits ≥ 6
// pair whole words; its bits < 6 permute bits within a word by swaps. The
// discrete partition (no generator) is dst ∧= φ, and the one-class
// partition keeps dst only when φ is everything.
func (p *partition) andKnowCoset(dst, phi *bitset.Set, ks *kernelScratch) {
	switch {
	case len(p.gens) == 0:
		dst.And(phi)
		return
	case p.n == 1:
		if !phi.IsFull() {
			dst.Clear()
		}
		return
	}
	pw, dw := phi.Words(), dst.Words()
	if hi, lo := p.gens[0]>>6, uint(p.gens[0]&63); len(p.gens) == 1 && lo&(lo-1) == 0 {
		// One generator g with at most one in-word bit needs no fold:
		// K φ(w) = φ(w) ∧ φ(w⊕g), with one swap per word (a zero shift
		// under an all-ones mask is the identity).
		s, m := uint(0), ^uint64(0)
		if lo != 0 {
			j := bits.TrailingZeros(lo)
			s, m = 1<<j, swapMasks[j]
		}
		dw = dw[:len(pw)]
		for i, w := range pw {
			v := pw[i^hi]
			dw[i] &= w & ((v&m)<<s | (v>>s)&m)
		}
		return
	}
	if cap(ks.fold) < len(pw) {
		ks.fold = make([]uint64, len(pw))
	}
	x := ks.fold[:len(pw)]
	copy(x, pw)
	for _, g := range p.gens {
		hi, lo := g>>6, uint(g&63)
		if hi == 0 {
			for i, w := range x {
				x[i] = w & swapBits(w, lo)
			}
			continue
		}
		for i := range x {
			if j := i ^ hi; j > i {
				a, b := x[i], x[j]
				x[i] = a & swapBits(b, lo)
				x[j] = b & swapBits(a, lo)
			}
		}
	}
	for i, w := range x {
		dw[i] &= w
	}
}

// swapBits returns w with bit b moved to bit b⊕lo, for lo < 64: one swap
// per set bit of lo.
func swapBits(w uint64, lo uint) uint64 {
	for ; lo != 0; lo &= lo - 1 {
		j := bits.TrailingZeros(lo)
		s, m := uint(1)<<j, swapMasks[j]
		w = (w&m)<<s | (w>>s)&m
	}
	return w
}
