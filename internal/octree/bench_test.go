package octree_test

import (
	"fmt"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

var errSink error

// BenchmarkTreeValidate reports Validate's cost per cell on 512 and 32 768
// uniform cells and on the 2 584-cell §5.4 policy tree every 64³ / k=16
// wire reply carries. ns/cell must stay flat (within 4×) across the three:
// no quadratic term.
func BenchmarkTreeValidate(b *testing.B) {
	build := func(tr *octree.Tree, err error) *octree.Tree {
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, tr := range []*octree.Tree{
		build(sample.Uniform{Rate: 2, CellSize: 8}.Tree(grid.Cube(64))),
		build(sample.DefaultPolicy(grid.CubeAt(grid.Point{16, 16, 16}, 16), 16).Tree(grid.Cube(64))),
		build(sample.Uniform{Rate: 2, CellSize: 4}.Tree(grid.Cube(128))),
	} {
		b.Run(fmt.Sprintf("cells=%d", tr.CellCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if errSink = tr.Validate(); errSink != nil {
					b.Fatal(errSink)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.CellCount()), "ns/cell")
		})
	}
}
