package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// Exchange is the single sparse exchange of the paper's method (§3.1 step
// 4, Algorithm 2 line 6) on P ranks, owner-computes: box j of
// grid.Decompose belongs to rank j mod P — an all-zero box a caller skips
// too, for its output region — every rank convolves its own boxes, sends
// each peer the samples of its results that the peer's boxes read, one
// group per box, and adds what it receives into its own boxes in box-index
// order. LowCommConvolve (one component) and the MASSIF solve (six) run it.
//
// Every rank places its boxes from one geometry, so every rank knows every
// box's tree, and the Exchange holds the one plan of who reads what: per
// (box, rank) a route. A message is values only — per group the box index,
// then each component's values at the route's samples — with no cell
// position, size, rate or count, and a point that several sent cells share
// once.
type Exchange struct {
	Boxes  []grid.Box // grid.Decompose order
	p      int
	comps  int
	k      int
	nb     [3]int         // boxes per axis: the k-lattice
	trees  []*octree.Tree // by box
	routes [][]route      // by box, then by destination rank
}

// route is what box j sends rank q: the cells of j's tree that overlap a
// box q owns, ascending; the distinct stored samples they read, in the
// order they first read them; and per cell its closed lattice as positions
// in that list.
type route struct {
	cells   []int32
	samples []int32
	views   [][]int32
}

// Group is one box's share of a message, decoded: the box index and, per
// component, its values at the route's samples, aliasing the message.
type Group struct {
	Box  int
	Vals [][]float64
}

// NewExchange lays out the exchange of C = comps component results of the
// k³ boxes of d on p ranks, box j's results stored on tree(j, box j) — the
// tree the rank that owns it places, conv.PlanSet.PolicyTree — and plans
// every route from those trees once. A box's tree and routes are its own
// work, so the boxes are laid out on every core: tree is called from
// several goroutines at once.
func NewExchange(d grid.Dim3, k, p, comps int, tree func(j int, b grid.Box) (*octree.Tree, error)) (*Exchange, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: worker count %d must be positive", p)
	}
	boxes, err := grid.Decompose(d, k)
	if err != nil {
		return nil, err
	}
	x := &Exchange{Boxes: boxes, p: p, comps: comps, k: k, nb: [3]int{d.Nx / k, d.Ny / k, d.Nz / k},
		trees: make([]*octree.Tree, len(boxes)), routes: make([][]route, len(boxes))}
	var ec fft.FirstError
	pos := make([][]int32, fft.Workers(0)) // each worker's scratch
	fft.ParallelFor(len(boxes), len(pos), func(w, j int) {
		t, err := tree(j, boxes[j])
		if err != nil {
			ec.Record(err)
			return
		}
		if n := t.SampleCount(); len(pos[w]) < n {
			pos[w] = make([]int32, n)
		}
		x.trees[j], x.routes[j] = t, x.plan(t, pos[w][:t.SampleCount()])
	})
	if err := ec.Err(); err != nil {
		return nil, err
	}
	return x, nil
}

// plan routes the cells of t, one box's tree, to every rank whose boxes
// they overlap, found on the k-lattice instead of by testing every box,
// and lists each route's samples in the order its cells first read them:
// one pass over the route's slots builds the list and the views. A route
// of every cell lists the storage order itself, which stores each point
// at its first slot. pos, one entry per stored sample, is scratch: a
// sample's entry is above base once the route being built lists it, at
// base + 1 + its place.
func (x *Exchange) plan(t *octree.Tree, pos []int32) []route {
	rs := make([]route, x.p)
	to := make([]bool, x.p)
	for ci, c := range t.Cells {
		clear(to)
		x.forBoxes(c.Box, func(b int) { to[b%x.p] = true })
		for q, ok := range to {
			if ok {
				rs[q].cells = append(rs[q].cells, int32(ci))
			}
		}
	}
	clear(pos)
	index, base := t.Index(), int32(0)
	for q := range rs {
		r := &rs[q]
		slots := 0
		for _, ci := range r.cells {
			slots += len(index.Cell(int(ci)))
		}
		samples, views := make([]int32, 0, min(slots, len(pos))), make([]int32, slots)
		r.views = make([][]int32, len(r.cells))
		for i, ci := range r.cells {
			cell := index.Cell(int(ci))
			v := views[:len(cell):len(cell)]
			views = views[len(cell):]
			for k, s := range cell {
				if pos[s] <= base {
					samples = append(samples, s)
					pos[s] = base + int32(len(samples))
				}
				v[k] = pos[s] - base - 1
			}
			r.views[i] = v
		}
		r.samples, base = samples, base+int32(len(samples))
	}
	return rs
}

// Owned returns the indices of rank q's boxes, ascending.
func (x *Exchange) Owned(q int) []int {
	var js []int
	for j := q; j < len(x.Boxes); j += x.p {
		js = append(js, j)
	}
	return js
}

// forBoxes calls f with the index of every box that c overlaps, found on
// the k-lattice instead of by testing every box.
func (x *Exchange) forBoxes(c grid.Box, f func(j int)) {
	var lo, hi [3]int
	for a := range lo {
		lo[a], hi[a] = max(c.Lo[a], 0)/x.k, min((c.Hi[a]-1)/x.k, x.nb[a]-1)
	}
	for bz := lo[2]; bz <= hi[2]; bz++ {
		for by := lo[1]; by <= hi[1]; by++ {
			for bx := lo[0]; bx <= hi[0]; bx++ {
				f(bx + x.nb[0]*(by+x.nb[1]*bz))
			}
		}
	}
}

// groupLen is the length of box j's group in a message to rank q: its
// index and C runs of the route's values, or 0 when the route is empty and
// no group is sent.
func (x *Exchange) groupLen(j, q int) int {
	if n := len(x.routes[j][q].samples); n > 0 {
		return 1 + x.comps*n
	}
	return 0
}

// Encode frames one rank's messages, one per destination rank: a group for
// each box src[i] whose route to it is not empty, in src order, carrying
// what the results outs[i] hold now — so a rank refills its results in
// place and encodes again every run.
func (x *Exchange) Encode(src []int, outs [][]*sample.Compressed) [][]float64 {
	msgs := make([][]float64, x.p)
	for q := range msgs {
		n := 0
		for _, j := range src {
			n += x.groupLen(j, q)
		}
		msg := make([]float64, 0, n)
		for i, j := range src {
			r := &x.routes[j][q]
			if len(r.samples) == 0 {
				continue
			}
			msg = append(msg, float64(j))
			for _, out := range outs[i] {
				for _, s := range r.samples {
					msg = append(msg, out.Samples[s])
				}
			}
		}
		msgs[q] = msg
	}
	return msgs
}

// Decode splits the messages rank to received, sender q's at index q, into
// groups, ascending by box; a nil message holds none. A sender's groups
// must name boxes it owns that route to rank to, ascending, each followed
// by exactly the values its route holds.
func (x *Exchange) Decode(to int, recv [][]float64) ([]Group, error) {
	var gs []Group
	for q, msg := range recv {
		last := -1
		for len(msg) > 0 {
			v := msg[0]
			if !(v >= 0 && v < float64(len(x.Boxes))) || v != float64(int(v)) || int(v)%x.p != q || int(v) <= last {
				return nil, fmt.Errorf("cluster: rank %d sent a group for box %g after box %d", q, v, last)
			}
			j := int(v)
			n := x.groupLen(j, to)
			if n == 0 {
				return nil, fmt.Errorf("cluster: rank %d sent a group for box %d, which routes nothing to rank %d", q, j, to)
			}
			if n > len(msg) {
				return nil, fmt.Errorf("cluster: rank %d sent %d values for box %d, whose group holds %d", q, len(msg), j, n)
			}
			g := Group{Box: j, Vals: make([][]float64, x.comps)}
			per := (n - 1) / x.comps
			for c := range g.Vals {
				g.Vals[c] = msg[1+c*per : 1+(c+1)*per : 1+(c+1)*per]
			}
			gs = append(gs, g)
			msg, last = msg[n:], j
		}
	}
	slices.SortFunc(gs, func(a, b Group) int { return cmp.Compare(a.Box, b.Box) })
	return gs, nil
}

// Accumulate adds the groups rank q decoded into each of its boxes: per
// component c, box j's field dst(j, c) — whose element (0, 0, 0) is grid
// point origin — gets every routed cell that overlaps box j, a patch on
// its group's values through the route's view, summed by
// sample.AddPatches in box-index order, then cell order. That is the order
// conv.Accumulate adds whole results in, and a voxel's value depends on
// that order alone, so the sum is conv.Decomposed.Run's bit for bit at
// every P.
func (x *Exchange) Accumulate(q int, groups []Group, dst func(j, c int) (f *grid.Field, origin grid.Point)) error {
	owned := x.Owned(q)
	mine := make([][]sample.Patch, len(owned))
	for c := range x.comps {
		for i := range mine {
			mine[i] = mine[i][:0]
		}
		for _, g := range groups {
			r, cells := &x.routes[g.Box][q], x.trees[g.Box].Cells
			for i, ci := range r.cells {
				pt := sample.Patch{Cell: cells[ci], Samples: g.Vals[c], View: r.views[i]}
				x.forBoxes(pt.Cell.Box, func(j int) {
					if j%x.p == q {
						mine[j/x.p] = append(mine[j/x.p], pt)
					}
				})
			}
		}
		for i, j := range owned {
			f, origin := dst(j, c)
			if err := sample.AddPatches(f, origin, x.Boxes[j], mine[i], 1); err != nil {
				return err
			}
		}
	}
	return nil
}
