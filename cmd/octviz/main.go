// Command octviz renders the paper's Fig. 3: the octree-based adaptive
// sampling pattern for a k³ sub-domain inside an N³ grid, as an ASCII
// density map of a z slice plus per-rate statistics.
//
//	octviz -n 128 -k 32 -far 16 -z 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/sample"
)

// glyphs maps a downsampling rate to a display character: denser sampling
// renders darker.
func glyph(rate int) byte {
	switch {
	case rate <= 1:
		return '#'
	case rate == 2:
		return '+'
	case rate <= 8:
		return '.'
	default:
		return ' '
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("octviz: ")
	var (
		n    = flag.Int("n", 128, "grid size N (power of two)")
		k    = flag.Int("k", 32, "sub-domain size k")
		far  = flag.Int("far", 16, "far-field downsampling rate")
		z    = flag.Int("z", -1, "z slice to render (-1 = center)")
		cell = flag.Int("cell", 0, "downscale the rendering by this factor (0 = fit 64 columns)")
	)
	flag.Parse()
	if *z < 0 {
		*z = *n / 2
	}
	if *z >= *n {
		log.Fatalf("z=%d outside grid of size %d", *z, *n)
	}

	dim := grid.Cube(*n)
	sub := grid.CubeAt(grid.Point{(*n - *k) / 2, (*n - *k) / 2, (*n - *k) / 2}, *k)
	pol := sample.DefaultPolicy(sub, *far)
	tree, err := pol.Tree(dim)
	if err != nil {
		log.Fatal(err)
	}

	loc := octree.NewLocator(tree)
	scale := *cell
	if scale <= 0 {
		scale = *n / 64
		if scale < 1 {
			scale = 1
		}
	}
	fmt.Printf("sampling pattern, z=%d (legend: '#' r=1, '+' r=2, '.' r≤8, ' ' coarser; %dx%d cells shown)\n\n",
		*z, *n/scale, *n/scale)
	for y := 0; y < *n; y += scale {
		row := make([]byte, 0, *n/scale)
		for x := 0; x < *n; x += scale {
			ci := loc.Find(x, y, *z)
			if ci < 0 {
				row = append(row, '?')
				continue
			}
			row = append(row, glyph(tree.Cells[ci].Rate))
		}
		fmt.Println(string(row))
	}

	fmt.Println()
	t := report.New("per-rate statistics", "rate", "cells", "volume %", "slots", "stored")
	byRate := map[int][4]int{}
	for _, c := range tree.Cells {
		e := byRate[c.Rate]
		e[0]++
		e[1] += c.Box.Volume()
		e[2] += c.SlotCount()
		byRate[c.Rate] = e
	}
	// A point shared by cells of several rates is stored with the cell of
	// its first slot.
	tree.ForEachPoint(func(ci, _, _, _, _ int) {
		e := byRate[tree.Cells[ci].Rate]
		e[3]++
		byRate[tree.Cells[ci].Rate] = e
	})
	for r := 1; r <= tree.MaxRate(); r <<= 1 {
		if e, ok := byRate[r]; ok {
			t.Add(r, e[0], 100*float64(e[1])/float64(dim.Len()), e[2], e[3])
		}
	}
	t.Render(os.Stdout)
	fmt.Printf("\n%d samples stored (one per point; %d lattice slots) of %d points: %.1fx compression, metadata %s\n",
		tree.SampleCount(), tree.SlotCount(), dim.Len(),
		float64(dim.Len())/float64(tree.SampleCount()),
		report.Bytes(int64(tree.MetadataBytes())))
}
