// Package unionfind implements a disjoint-set union (DSU) structure with
// path compression and union by size.
//
// The epistemic model checker uses DSU to compute the G-reachability
// components of Section 6 of Halpern & Moses: common knowledge C_G φ holds
// at a point exactly if φ holds at every point in the same component of the
// union of the indistinguishability relations of the agents in G.
package unionfind

// DSU is a disjoint-set union over the universe [0, n).
type DSU struct {
	parent []int
	size   []int
	comps  int
}

// New returns a DSU with each element of [0, n) in its own singleton set.
func New(n int) *DSU {
	if n < 0 {
		n = 0
	}
	d := &DSU{
		parent: make([]int, n),
		size:   make([]int, n),
		comps:  n,
	}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// NewFromIDs builds a DSU over [0, len(ids)) whose sets are exactly the
// classes of ids, which must be dense in [0, n). Every element is linked
// directly to the first element of its class, so the structure starts
// fully compressed. It is the bulk constructor used when a partition is
// already known (e.g. restricting a model to a subset of worlds).
func NewFromIDs(ids []int32, n int) *DSU {
	d := &DSU{
		parent: make([]int, len(ids)),
		size:   make([]int, len(ids)),
		comps:  n,
	}
	first := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	for i, id := range ids {
		if first[id] < 0 {
			first[id] = int32(i)
		}
		r := int(first[id])
		d.parent[i] = r
		d.size[r]++
	}
	return d
}

// Len returns the size of the universe.
func (d *DSU) Len() int { return len(d.parent) }

// Find returns the canonical representative of the set containing x.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// actually happened (false if they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.size[rx] < d.size[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	d.size[rx] += d.size[ry]
	d.comps--
	return true
}

// Same reports whether x and y belong to the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Components returns the current number of disjoint sets.
func (d *DSU) Components() int { return d.comps }

// SizeOf returns the size of the set containing x.
func (d *DSU) SizeOf(x int) int { return d.size[d.Find(x)] }

// CompIDs returns a slice mapping each element to a dense component id in
// [0, Components()). Elements share an id iff they are in the same set.
func (d *DSU) CompIDs() []int {
	ids := make([]int, len(d.parent))
	mark := make([]int, len(d.parent))
	for i := range mark {
		mark[i] = -1
	}
	next := 0
	for i := range d.parent {
		r := d.Find(i)
		if mark[r] < 0 {
			mark[r] = next
			next++
		}
		ids[i] = mark[r]
	}
	return ids
}

// CompIDsInto writes the dense component ids of CompIDs into ids, which
// must have length Len(), and returns the number of components. It is the
// allocation-free form used when the caller owns a reusable buffer; mark is
// an optional scratch slice of length Len() (a fresh one is allocated when
// nil or too short).
func (d *DSU) CompIDsInto(ids []int32, mark []int32) int {
	n := len(d.parent)
	if len(mark) < n {
		mark = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		mark[i] = -1
	}
	next := int32(0)
	for i := 0; i < n; i++ {
		r := d.Find(i)
		if mark[r] < 0 {
			mark[r] = next
			next++
		}
		ids[i] = mark[r]
	}
	return int(next)
}

// Groups returns the members of each set, indexed by the dense component ids
// of CompIDs. The inner slices list members in increasing order.
func (d *DSU) Groups() [][]int {
	ids := d.CompIDs()
	groups := make([][]int, d.comps)
	for i, id := range ids {
		groups[id] = append(groups[id], i)
	}
	return groups
}
