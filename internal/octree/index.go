package octree

import (
	"fmt"
	"math"
)

// Index maps a tree's lattice slots to its stored samples.
//
// The slots are every cell's closed lattice in turn — m³ per cell, m =
// LatticePoints, x fastest — the layout the 5-int metadata's cumulative
// count and a patch count in. A grid point on a face, edge or corner that
// several cells share is a slot of each of them, but it is stored once: the
// storage holds the tree's distinct sampled points in the order of their
// first slot. So the per-cell lattices are a read-only view of the storage,
// through one index per tree shape, and a cell's lattice is stored mostly
// where the cell is: the points it shares with the cells before it, on its
// low faces, were stored with them.
//
// The order depends only on which slots sample the same torus point, and a
// translation of the tree on the torus keeps that, so a translated tree
// shares its index (Translate).
type Index struct {
	slot   []int32 // slot → stored sample
	cell   []int32 // cell i's slots are slot[cell[i]:cell[i+1]]
	stored int
}

// Cell returns cell i's lattice: its slot j, x fastest, is stored sample
// Cell(i)[j].
func (x *Index) Cell(i int) []int32 { return x.slot[x.cell[i]:x.cell[i+1]:x.cell[i+1]] }

// Index returns the tree's slot index, built on first use. It is defined
// for trees Validate accepts, whose cells must not change afterwards.
func (t *Tree) Index() *Index {
	if x := t.index.Load(); x != nil {
		return x
	}
	t.index.CompareAndSwap(nil, newIndex(t))
	return t.index.Load()
}

// SlotCount returns the number of lattice slots: Σ LatticePoints³ over
// the cells. It counts a shared point once per cell; SampleCount counts it
// once.
func (t *Tree) SlotCount() int {
	n := 0
	for _, c := range t.Cells {
		n += c.SlotCount()
	}
	return n
}

// SampleCount returns the number of samples the tree stores: its distinct
// sampled grid points.
func (t *Tree) SampleCount() int { return t.Index().stored }

// rowSeg is one lattice row of one cell: the slots s, s+1, …, s+m−1 at
// x = lo, lo+r, …, lo+(m−1)·r of torus row (y, z).
type rowSeg struct{ s, lo, r, m, y, z int32 }

// newIndex finds which slots sample the same torus point without a map or
// a grid-sized table, in O(slots + n): the cells' lattice rows are radix
// sorted by (z, y) — two stable counting sorts over n keys, so the rows of
// one torus row keep slot order — then each torus row's slots are matched
// by x through one n-entry stamp table, each slot pointing at the first
// slot of its point; one pass in slot order then numbers the points as
// they are first seen.
func newIndex(t *Tree) *Index {
	n := t.Dim.Nx
	x := &Index{cell: make([]int32, len(t.Cells)+1)}
	slots, rows := 0, 0
	for i, c := range t.Cells {
		x.cell[i] = int32(slots)
		m := c.LatticePoints()
		slots += m * m * m
		rows += m * m
		if slots > math.MaxInt32 {
			panic(fmt.Sprintf("octree: %d lattice slots and more: the index holds at most 2³¹", slots))
		}
	}
	x.cell[len(t.Cells)] = int32(slots)
	segs, sorted := make([]rowSeg, 0, rows), make([]rowSeg, rows)
	count := make([]int32, n+1)
	for i, c := range t.Cells {
		m, r, s := c.LatticePoints(), c.Rate, x.cell[i]
		for iz := range m {
			z := int32(wrapHigh(c.Box.Lo[2]+iz*r, n))
			for iy := range m {
				y := int32(wrapHigh(c.Box.Lo[1]+iy*r, n))
				segs = append(segs, rowSeg{s: s, lo: int32(c.Box.Lo[0]), r: int32(r), m: int32(m), y: y, z: z})
				count[y+1]++
				s += int32(m)
			}
		}
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for _, g := range segs {
		sorted[count[g.y]] = g
		count[g.y]++
	}
	clear(count)
	for _, g := range sorted {
		count[g.z+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for _, g := range sorted {
		segs[count[g.z]] = g
		count[g.z]++
	}

	// first[w] is the first slot at x = w in the torus row stamp[w] names,
	// the rows numbered from 1.
	x.slot = make([]int32, slots)
	stamp, first := make([]int32, n), make([]int32, n)
	row, y, z := int32(0), int32(-1), int32(-1)
	for _, g := range segs {
		if g.y != y || g.z != z {
			row, y, z = row+1, g.y, g.z
		}
		out := x.slot[g.s:][:g.m]
		for j := range out {
			w := g.lo + int32(j)*g.r
			if w == int32(n) {
				w = 0
			}
			if stamp[w] != row {
				stamp[w], first[w] = row, g.s+int32(j)
			}
			out[j] = first[w]
		}
	}
	next := int32(0)
	for s, f := range x.slot {
		if f == int32(s) {
			x.slot[s] = next
			next++
		} else {
			x.slot[s] = x.slot[f]
		}
	}
	x.stored = int(next)
	return x
}
