package conv

import (
	"sort"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// geometry is the sampling index of one octree, in the frame of a box: the
// z planes that carry a sample, ascending; the rows of each that do (by z,
// then y; kept plane slot's are rows[rowOff[slot]:rowOff[slot+1]]); and each
// row's gather points. Coordinates are taken from the box's low corner at
// and wrapped onto the torus, not stored through perm, so one geometry
// serves every box its tree is a translate for. It is immutable: Locals
// share it, and Local.place turns it into one box's index.
type geometry struct {
	tree    *octree.Tree
	at      grid.Point // the low corner of the box whose frame the index is in
	keptZ   []int32
	rows    []sampleRow
	rowOff  []int
	gather  []gatherPoint
	maxEdge int // the tree's largest cell edge
}

// newGeometry groups the octree's stored sample points by z plane and,
// within a plane, by row, so the pipeline keeps and transforms only the
// rows that carry a sample and gathers straight from each
// inverse-transformed line — the "compression algorithm applied after each
// 1D iFFT stage". Each distinct point is one gather, so stage C writes
// every stored value once. A counting sort on the key z·n+y in at's frame,
// no maps: one walk of the points takes each one's key and x, the fill is
// one pass over them.
func newGeometry(tree *octree.Tree, at grid.Point) *geometry {
	n := tree.Dim.Nx
	g := &geometry{tree: tree, at: at}
	for _, c := range tree.Cells {
		g.maxEdge = max(g.maxEdge, c.Box.Hi[0]-c.Box.Lo[0])
	}
	frame := func(v, a int) int {
		if v -= a; v < 0 {
			v += n
		}
		return v
	}
	off := make([]int32, n*n+1)
	keys, xs := make([]int32, tree.SampleCount()), make([]int32, tree.SampleCount())
	tree.ForEachPoint(func(_, s, x, y, z int) {
		keys[s], xs[s] = int32(frame(z, at[2])*n+frame(y, at[1])), int32(frame(x, at[0]))
		off[keys[s]+1]++
	})
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	g.rowOff = []int{0}
	for z := 0; z < n; z++ {
		first := len(g.rows)
		for y := 0; y < n; y++ {
			if lo, hi := off[z*n+y], off[z*n+y+1]; hi > lo {
				g.rows = append(g.rows, sampleRow{y: int32(y), lo: lo, hi: hi})
			}
		}
		if len(g.rows) > first {
			g.keptZ = append(g.keptZ, int32(z))
			g.rowOff = append(g.rowOff, len(g.rows))
		}
	}
	g.gather = make([]gatherPoint, len(keys))
	for s, k := range keys {
		g.gather[off[k]] = gatherPoint{x: xs[s], sample: int32(s)}
		off[k]++
	}
	return g
}

// translates reports whether the tree of policy p is p's origin tree
// moved to p.Sub, given that the origin tree's largest cell edge is e: when
// p.Sub sits on the e-lattice and p's own build splits every node of edge
// larger than e, both trees are unions of per-e-block subtrees, and the
// rates depend only on the torus distance to the box, so the box's block
// subtrees are the origin's moved. The check asks the rate function of the
// Σ(N/S)³ nodes of edge S > e: nine at N/k = 4, where e = k.
func translates(p sample.Policy, d grid.Dim3, e int) bool {
	if p.Sub.Lo[0]%e != 0 || p.Sub.Lo[1]%e != 0 || p.Sub.Lo[2]%e != 0 {
		return false
	}
	rate := p.RateFunc(d)
	n := d.Nx
	for s := n; s > e; s /= 2 {
		for z := 0; z < n; z += s {
			for y := 0; y < n; y += s {
				for x := 0; x < n; x += s {
					if rate(grid.CubeAt(grid.Point{x, y, z}, s)) != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// policyGeometry returns the geometry for box p.Sub under policy p: the
// geometry of the policy's origin box, built once per plan set and shared,
// when p.Sub's tree is its translate, and else one of p.Sub's own tree.
func (ps *PlanSet) policyGeometry(p sample.Policy) (*geometry, error) {
	key := p
	key.Sub = grid.Box{Hi: p.Sub.Size()}
	v, ok := ps.geoms.Load(key)
	if !ok {
		tree, err := key.Tree(ps.dim)
		if err != nil {
			return nil, err
		}
		v, _ = ps.geoms.LoadOrStore(key, newGeometry(tree, key.Sub.Lo))
	}
	if g := v.(*geometry); p.Sub == key.Sub || translates(p, ps.dim, g.maxEdge) {
		return g, nil
	}
	tree, err := p.Tree(ps.dim)
	if err != nil {
		return nil, err
	}
	return newGeometry(tree, p.Sub.Lo), nil
}

// PolicyTree returns the tree NewPolicyLocal places for policy p, in its
// cell and storage order: the memoized origin tree moved to p.Sub, sharing
// its index (octree.Tree.Translate), where p.Sub's tree is its translate.
func (ps *PlanSet) PolicyTree(p sample.Policy) (*octree.Tree, error) {
	g, err := ps.policyGeometry(p)
	if err != nil {
		return nil, err
	}
	return g.treeAt(p.Sub.Lo), nil
}

// treeAt returns g's tree in the frame at o: g's own when the frames agree,
// else moved by the offset between them on the torus, in its cell order.
func (g *geometry) treeAt(o grid.Point) *octree.Tree {
	if o == g.at {
		return g.tree
	}
	n := g.tree.Dim.Nx
	var s grid.Point
	for i := range s {
		s[i] = (o[i] - g.at[i] + n) % n
	}
	return g.tree.Translate(s)
}

// place sets l's sampling index to g's, moved to l's box: the tree is g's
// in the box's frame (treeAt); the kept planes, and the rows of each, are
// rotated into ascending order on the grid, and stored through perm; the
// rows of each plane are paired in that order, fft.Tile pairs to a stage-C
// tile; and xpos maps a frame x to its line
// position, through which stage C gathers.
func (l *Local) place(g *geometry) {
	n, o := l.n, grid.Point{l.ox, l.oy, l.oz}
	l.tree = g.treeAt(o)
	l.gather = g.gather
	nz := len(g.keptZ)
	l.keptZ = make([]int32, 0, nz)
	l.rows = make([]sampleRow, 0, len(g.rows))
	l.rowOff = make([]int, 1, nz+1)
	zs := g.keptZ
	jz := sort.Search(nz, func(i int) bool { return int(zs[i]) >= n-o[2] })
	for i := range nz {
		slot := (jz + i) % nz
		l.keptZ = append(l.keptZ, l.perm[(int(zs[slot])+o[2])%n])
		rs := g.rows[g.rowOff[slot]:g.rowOff[slot+1]]
		jy := sort.Search(len(rs), func(i int) bool { return int(rs[i].y) >= n-o[1] })
		for i := range rs {
			r := rs[(jy+i)%len(rs)]
			r.y = l.perm[(int(r.y)+o[1])%n]
			l.rows = append(l.rows, r)
		}
		l.rowOff = append(l.rowOff, len(l.rows))
	}
	for slot := range nz {
		end := l.rowOff[slot+1]
		for ra := l.rowOff[slot]; ra < end; ra += 2 {
			l.pairs = append(l.pairs, rowPair{int32(ra), int32(min(ra+1, end-1))})
		}
	}
	l.rowPairs = len(l.pairs)
	for len(l.pairs)%fft.Tile != 0 { // a padding lane repeats the last pair
		l.pairs = append(l.pairs, l.pairs[len(l.pairs)-1])
	}
	l.xpos = make([]int32, n)
	for x := range l.xpos {
		l.xpos[x] = l.perm[(x+o[0])%n]
	}
}
