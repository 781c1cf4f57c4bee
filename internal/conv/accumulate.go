package conv

import (
	"fmt"
	"sync/atomic"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// Accumulate sums the interpolated reconstructions of per-sub-domain
// compressed results into one dense field — the paper's Algorithm 2 line 6
// accumulation ("exchange of samples between the workers in the last step
// followed by interpolation gives us the approximate result of the full
// convolution").
func Accumulate(dim grid.Dim3, results []*sample.Compressed) (*grid.Field, error) {
	return AccumulateRegion(dim, results, dim.Bounds())
}

// AccumulateRegion accumulates only within region — what a worker that
// owns that region computes after receiving every sub-domain's samples.
//
// The region is cut into one contiguous z-slab per worker and each worker
// runs sample.AddResults on its own slab: every block of every rate is
// interpolated once from the sum of the results' corner samples, and a
// voxel's value depends on the order of results alone, so the field does
// not depend on the worker count.
func AccumulateRegion(dim grid.Dim3, results []*sample.Compressed, region grid.Box) (*grid.Field, error) {
	out := grid.NewField(dim)
	region = region.Intersect(dim.Bounds())
	workers := fft.Workers(0)
	z0, nz := region.Lo[2], region.Hi[2]-region.Lo[2]
	var ec fft.FirstError
	fft.ParallelFor(workers, workers, func(_, w int) {
		slab := region
		slab.Lo[2], slab.Hi[2] = z0+nz*w/workers, z0+nz*(w+1)/workers
		ec.Record(sample.AddResults(out, slab, results, 1))
	})
	if err := ec.Err(); err != nil {
		return nil, fmt.Errorf("conv: accumulating: %w", err)
	}
	return out, nil
}

// Decomposed is the end-to-end proposed method on a single machine:
// decompose the input into k³ sub-domains, convolve each locally with
// octree-sampled compression, and accumulate the compressed results. By
// linearity of convolution the accumulated field approximates the full
// circular convolution of the input.
type Decomposed struct {
	Kernel  green.Kernel
	SubSize int // k
	FarRate int // far-field downsampling rate (paper: 16 or 32)
	Cfg     Config

	// Parallel processes this many sub-domains concurrently, each with
	// its own pipeline (set Cfg.Workers to 1 to avoid oversubscribing the
	// per-pipeline parallelism). ≤1 runs serially.
	Parallel int

	// TreeFor overrides the sampling octree used for a sub-domain; nil
	// selects sample.DefaultPolicy(box, FarRate). Tests use a rate-1 tree
	// here to check the exact accumulation identity; ablations swap in
	// uniform sampling.
	TreeFor func(sub grid.Box, dim grid.Dim3) (*octree.Tree, error)
}

// DecomposedStats aggregates per-sub-domain stats.
type DecomposedStats struct {
	PerSub          []Stats
	TotalSamples    int
	TotalBytes      int // compressed bytes exchanged in the accumulation
	DenseBytes      int // dense-result bytes the traditional method exchanges
	MaxPeakBytes    int // worst per-sub-domain working set
	CompressionMean float64
	SkippedZero     int // sub-domains skipped because their input is identically zero

	// MaxLiveSubFields is the high-water count of simultaneously-live
	// extracted sub-field copies. Extraction is lazy — inside the worker
	// loop — so this stays ≤ the Parallel worker count instead of the
	// job count (also exported as the conv.live_subfields trace gauge).
	MaxLiveSubFields int
}

// Run convolves the full field f with the configured kernel using the
// proposed method and returns the approximate result.
func (dc Decomposed) Run(f *grid.Field) (*grid.Field, DecomposedStats, error) {
	boxes, err := grid.Decompose(f.Dim, dc.SubSize)
	if err != nil {
		return nil, DecomposedStats{}, err
	}
	// Zero sub-domains convolve to zero: skip them entirely — the "zero
	// regions" structure the paper's intro lists among the exploitable
	// properties. Sparse inputs touch only a few sub-domains. The scan
	// reads f in place; no copies are made until a worker runs the job.
	var jobs []grid.Box
	for _, b := range boxes {
		if !f.BoxAllZero(b) {
			jobs = append(jobs, b)
		}
	}
	out, ds, err := dc.runBoxes(f, jobs)
	ds.SkippedZero = len(boxes) - len(jobs)
	return out, ds, err
}

// RunAdaptive convolves f with an irregular, input-adaptive partition
// (paper §3.1: "irregular partitions can also be made"): inactive regions
// are never decomposed at all, partially-active maxK cubes are subdivided
// down to minK, and each retained cube — of whatever size — runs the local
// pipeline. For sparse inputs this goes beyond Run's zero-skipping: the
// retained boxes hug the support, so the slabs and exchanges shrink too.
// dc.SubSize is the maximum cube size; minK the smallest.
func (dc Decomposed) RunAdaptive(f *grid.Field, minK int) (*grid.Field, DecomposedStats, error) {
	boxes, err := grid.DecomposeAdaptive(f.Dim, dc.SubSize, minK, grid.ActiveNonzero(f))
	if err != nil {
		return nil, DecomposedStats{}, err
	}
	full, err := grid.Decompose(f.Dim, dc.SubSize)
	if err != nil {
		return nil, DecomposedStats{}, err
	}
	out, ds, err := dc.runBoxes(f, boxes)
	ds.SkippedZero = len(full) - len(boxes) // vs the regular partition, informational
	return out, ds, err
}

// runBoxes is the box loop behind Run and RunAdaptive: one plan set and one
// kernel callback for the call, one pipeline per box (dc.Parallel at a
// time) sampled by dc.TreeFor or else placed by NewPolicyLocal under
// sample.DefaultPolicy, then accumulation in box order.
func (dc Decomposed) runBoxes(f *grid.Field, jobs []grid.Box) (*grid.Field, DecomposedStats, error) {
	var ds DecomposedStats
	plans, err := NewPlanSet(f.Dim, dc.Cfg.Workers)
	if err != nil {
		return nil, ds, err
	}
	pw := KernelPointwise(f.Dim, dc.Kernel)
	results := make([]*sample.Compressed, len(jobs))
	stats := make([]Stats, len(jobs))
	workers := dc.Parallel
	if workers < 1 {
		workers = 1
	}
	// Sub-fields are extracted lazily inside the worker loop, so the peak
	// count of live k³ input copies is the number of active workers — not
	// the job count, which for a dense input is (N/k)³ copies of the
	// whole field's worth of data before any job runs.
	var live, liveMax atomic.Int64
	var ec fft.FirstError
	fft.ParallelFor(len(jobs), workers, func(_, i int) {
		if ec.Failed() {
			return
		}
		box := jobs[i]
		var local *Local
		var err error
		if dc.TreeFor != nil {
			var tree *octree.Tree
			if tree, err = dc.TreeFor(box, f.Dim); err == nil {
				local, err = plans.NewLocal(box, tree, pw, dc.Cfg)
			}
		} else {
			local, err = plans.NewPolicyLocal(sample.DefaultPolicy(box, dc.FarRate), pw, dc.Cfg)
		}
		if err != nil {
			ec.Record(err)
			return
		}
		cur := live.Add(1)
		for {
			m := liveMax.Load()
			if cur <= m || liveMax.CompareAndSwap(m, cur) {
				break
			}
		}
		subField, err := f.ExtractBox(box)
		if err != nil {
			live.Add(-1)
			ec.Record(err)
			return
		}
		res, st, err := local.Run(subField)
		local.ReleaseBuffers()
		live.Add(-1)
		if err != nil {
			ec.Record(err)
			return
		}
		results[i] = res
		stats[i] = st
	})
	if err := ec.Err(); err != nil {
		return nil, ds, err
	}
	ds.MaxLiveSubFields = int(liveMax.Load())
	dc.Cfg.Trace.Gauge("conv.live_subfields").Max(liveMax.Load())
	for _, st := range stats {
		ds.PerSub = append(ds.PerSub, st)
		ds.TotalSamples += st.SampleCount
		ds.TotalBytes += st.SampleBytes
		if st.PeakBytes > ds.MaxPeakBytes {
			ds.MaxPeakBytes = st.PeakBytes
		}
		ds.CompressionMean += st.Compression
	}
	if len(ds.PerSub) > 0 {
		ds.CompressionMean /= float64(len(ds.PerSub))
	}
	ds.DenseBytes = 8 * f.Dim.Len() * len(jobs)
	acc := dc.Cfg.Trace.Start("conv.accumulate")
	out, err := Accumulate(f.Dim, results)
	acc.End()
	if err != nil {
		return nil, ds, err
	}
	return out, ds, nil
}
