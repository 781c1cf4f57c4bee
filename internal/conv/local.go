package conv

import (
	"fmt"
	"time"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// Pointwise is the frequency-domain callback applied between the forward
// and inverse stages — the role played by cuFFT callback functions in the
// paper's proof of concept (Fig. 4) and by the pointwise sub-plan in its
// FFTX sketch (Fig. 5).
type Pointwise func(kx, ky, kz int, v complex128) complex128

// KernelPointwise adapts a scalar kernel to a Pointwise callback.
// Separable kernels (green.Separable) get a fast path: three per-axis
// tables are precomputed once, so the hot pencil loop multiplies three
// table entries instead of evaluating the transcendental Hat per point.
func KernelPointwise(d grid.Dim3, k green.Kernel) Pointwise {
	if s, ok := k.(green.Separable); ok {
		tx := make([]float64, d.Nx)
		for kx := range tx {
			tx[kx] = s.AxisHat(d.Nx, kx)
		}
		ty := tx
		if d.Ny != d.Nx {
			ty = make([]float64, d.Ny)
			for ky := range ty {
				ty[ky] = s.AxisHat(d.Ny, ky)
			}
		}
		tz := tx
		switch {
		case d.Nz == d.Nx:
		case d.Nz == d.Ny:
			tz = ty
		default:
			tz = make([]float64, d.Nz)
			for kz := range tz {
				tz[kz] = s.AxisHat(d.Nz, kz)
			}
		}
		return func(kx, ky, kz int, v complex128) complex128 {
			return v * complex(tx[kx]*ty[ky]*tz[kz], 0)
		}
	}
	return func(kx, ky, kz int, v complex128) complex128 {
		return v * complex(k.Hat(d, kx, ky, kz), 0)
	}
}

// Config tunes the local pipeline.
type Config struct {
	Workers int // goroutines for batched pencil stages (≤0: GOMAXPROCS)
	BatchB  int // pencils per batch, the paper's §5.4 batch parameter (≤0: one batch)

	// Trace, when non-nil, records per-stage spans ("conv.run",
	// "conv.stageA/B/C"), per-stage latency histograms
	// ("conv.stage_a/b/c_seconds"), per-worker pencil spans, and the
	// counters/gauges behind Stats (conv.pencils, conv.samples,
	// conv.sample_bytes, conv.flops_model, conv.peak_bytes). Nil disables
	// all recording.
	Trace *obs.Trace
}

// Stats reports the footprint and work of one local convolution, the
// quantities behind the paper's Tables 1 and 4.
type Stats struct {
	SlabBytes   int // N×N×k complex slab
	PlanesBytes int // kept inverse planes, N×N×|Z| complex
	SampleBytes int // compressed output (samples + octree metadata)
	PeakBytes   int // max simultaneously-live intermediate footprint
	ModelBytes  int // the paper's 8·N²·k back-of-envelope figure
	KeptZPlanes int
	PencilCount int
	SampleCount int
	Compression float64 // dense result bytes / compressed bytes

	// Per-stage wall time, measured whether or not a Trace is attached, so
	// job timelines can attribute compute latency to stages A/B/C.
	StageA time.Duration // forward 2D slab transforms
	StageB time.Duration // batched 1D z transforms + pointwise
	StageC time.Duration // inverse 2D planes + octree gather
}

// Local performs the paper's domain-local convolution of one k³ sub-domain
// against a full-grid kernel: the dense N³ result is never materialized;
// the output is the octree-compressed sampling of the full-grid circular
// convolution. All transforms are local — no data leaves the worker until
// the compressed samples are exchanged in the accumulation step.
type Local struct {
	dim    grid.Dim3
	sub    grid.Box
	pw     Pointwise
	tree   *octree.Tree
	cfg    Config
	plan2d *fft.Plan2D
	planZ  *fft.Plan

	// Sampling index: for each kept z plane, the (x, y, sampleIdx) triples
	// to gather after the inverse 2D transform of that plane.
	zIndex map[int][]gatherPoint
	keptZ  []int
	zSlot  map[int]int

	// Reused working buffers (Run is therefore not safe for concurrent
	// use on one Local; create one Local per goroutine). scratch holds the
	// per-worker pencil buffers for stage B, allocated once so a warm Run
	// performs no heap allocations.
	slabBuf   []complex128
	planesBuf []complex128
	scratch   []pencilScratch

	// Fixed geometry, cached at construction.
	n, k       int // grid edge, sub-domain edge
	ox, oy, oz int // sub-domain low corner

	// Per-run state read by the prebuilt worker funcs below. The funcs
	// are method values bound once at construction: a closure literal in
	// Run would be heap-allocated per call (its captures escape into
	// ParallelForSpanned), which is exactly what the steady-state serving
	// path cannot afford.
	runIn  *grid.Field    // current job's input sub-field
	bStart int            // current stage-B batch offset
	ec     fft.FirstError // per-run first-error collector
	fnA    func(w, zi int)
	fnB    func(w, i int)

	// Per-stage latency histograms, cached at construction so Run does no
	// registry lookups (nil when cfg.Trace is nil; Observe is nil-safe).
	hA, hB, hC *obs.Histogram
}

type gatherPoint struct {
	x, y   int32
	sample int32
}

// pencilScratch is one worker's reusable length-n line buffers.
type pencilScratch struct {
	spec, inv []complex128
}

// NewLocal builds a local-convolution pipeline for sub-domain box sub of
// an N³ grid (dim), with the sampling octree tree (typically from
// sample.Policy) and the frequency-domain callback pw. The transform plans
// are built privately; use PlanSet.NewLocal to share them across pipelines
// on the same grid.
func NewLocal(dim grid.Dim3, sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	ps, err := NewPlanSet(dim, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return newLocal(dim, sub, tree, pw, cfg, ps)
}

// newLocal finishes pipeline construction on top of an existing plan set.
func newLocal(dim grid.Dim3, sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config, ps *PlanSet) (*Local, error) {
	if dim.Nx != dim.Ny || dim.Ny != dim.Nz {
		return nil, fmt.Errorf("conv: grid %v must be cubic", dim)
	}
	if tree.Dim != dim {
		return nil, fmt.Errorf("conv: tree dims %v != grid dims %v", tree.Dim, dim)
	}
	if !dim.Bounds().ContainsBox(sub) {
		return nil, fmt.Errorf("conv: sub-domain %v outside grid %v", sub, dim)
	}
	s := sub.Size()
	if s[0] != s[1] || s[1] != s[2] {
		return nil, fmt.Errorf("conv: sub-domain %v must be cubic", sub)
	}
	n := dim.Nx
	k := s[0]
	if k < 1 {
		return nil, fmt.Errorf("conv: sub-domain size %d must be ≥ 1", k)
	}
	l := &Local{dim: dim, sub: sub, pw: pw, tree: tree, cfg: cfg}
	l.plan2d = ps.plan2d
	l.planZ = ps.planZ
	workers := fft.Workers(cfg.Workers)
	l.scratch = make([]pencilScratch, workers)
	for w := range l.scratch {
		l.scratch[w] = pencilScratch{
			spec: make([]complex128, n),
			inv:  make([]complex128, n),
		}
	}
	l.n, l.k = n, k
	l.ox, l.oy, l.oz = sub.Lo[0], sub.Lo[1], sub.Lo[2]
	l.fnA = l.slabPlane
	l.fnB = l.pencilWorker
	l.buildSampleIndex()
	l.hA = cfg.Trace.Histogram("conv.stage_a_seconds")
	l.hB = cfg.Trace.Histogram("conv.stage_b_seconds")
	l.hC = cfg.Trace.Histogram("conv.stage_c_seconds")
	return l, nil
}

// buildSampleIndex groups the octree's sample points by z plane so the
// inverse stage can gather them directly from each inverse-transformed
// plane — the "compression algorithm applied after each 1D iFFT stage".
func (l *Local) buildSampleIndex() {
	l.zIndex = make(map[int][]gatherPoint)
	l.tree.ForEachSample(func(cell, s, x, y, z int) {
		l.zIndex[z] = append(l.zIndex[z], gatherPoint{x: int32(x), y: int32(y), sample: int32(s)})
	})
	l.keptZ = make([]int, 0, len(l.zIndex))
	for z := range l.zIndex {
		l.keptZ = append(l.keptZ, z)
	}
	// Deterministic order.
	for i := 1; i < len(l.keptZ); i++ {
		for j := i; j > 0 && l.keptZ[j] < l.keptZ[j-1]; j-- {
			l.keptZ[j], l.keptZ[j-1] = l.keptZ[j-1], l.keptZ[j]
		}
	}
	l.zSlot = make(map[int]int, len(l.keptZ))
	for i, z := range l.keptZ {
		l.zSlot[z] = i
	}
}

// Tree returns the sampling octree used by the pipeline.
func (l *Local) Tree() *octree.Tree { return l.tree }

// Run convolves the k³ sub-domain field (dimensions equal to the
// sub-domain box) and returns the compressed result plus footprint stats.
func (l *Local) Run(subField *grid.Field) (*sample.Compressed, Stats, error) {
	return l.RunInto(subField, nil)
}

// RunInto is Run with an optional caller-provided output arena: when out
// was built for this pipeline's tree (same tree, full sample storage), its
// samples are overwritten in place and no output allocation happens — the
// steady-state path of a serving engine recycling result buffers. Any
// other out (nil included) falls back to a fresh allocation.
func (l *Local) RunInto(subField *grid.Field, out *sample.Compressed) (*sample.Compressed, Stats, error) {
	var st Stats
	s := l.sub.Size()
	if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != subField.Dim {
		return nil, st, fmt.Errorf("conv: sub field %v does not match box %v", subField.Dim, l.sub)
	}
	n, k := l.n, l.k
	l.runIn = subField
	l.ec.Reset()
	run := l.cfg.Trace.Start("conv.run")
	defer run.End()

	// Stage A — forward 2D transforms of the k sub-domain slices into the
	// N×N×k slab ("the small domain undergoes a 2D transform to a slab").
	// The buffer is reused across runs and must be zeroed: only the k×k
	// block of each plane is written before the full-plane transform.
	tA := time.Now()
	spanA := run.Start("conv.stageA")
	if len(l.slabBuf) != n*n*k {
		l.slabBuf = make([]complex128, n*n*k)
	} else {
		for i := range l.slabBuf {
			l.slabBuf[i] = 0
		}
	}
	if err := l.slabForward(spanA); err != nil {
		spanA.End()
		return nil, st, err
	}
	l.runIn = nil // input is only read in stage A; don't retain it
	spanA.End()
	st.StageA = time.Since(tA)
	l.hA.Observe(st.StageA)
	st.SlabBytes = 16 * n * n * k

	// Stage B — batched 1D z transforms of the N² pencils with the
	// pointwise callback, inverse z transform, keeping only sampled z
	// planes ("the slab is then transformed in a batch fashion by taking
	// 1D transforms of B pencils at a time in the z-dimension").
	tB := time.Now()
	spanB := run.Start("conv.stageB")
	nz := len(l.keptZ)
	if len(l.planesBuf) != n*n*nz {
		l.planesBuf = make([]complex128, n*n*nz)
	}
	planes := l.planesBuf
	st.PlanesBytes = 16 * n * n * nz
	st.KeptZPlanes = nz
	st.PencilCount = n * n
	batch := l.cfg.BatchB
	if batch <= 0 || batch > n*n {
		batch = n * n
	}
	workers := fft.Workers(l.cfg.Workers)
	for start := 0; start < n*n; start += batch {
		end := start + batch
		if end > n*n {
			end = n * n
		}
		l.bStart = start
		fft.ParallelForSpanned(spanB, "conv.stageB.worker", end-start, workers, l.fnB)
		if err := l.ec.Err(); err != nil {
			spanB.End()
			return nil, st, err
		}
	}
	spanB.End()
	st.StageB = time.Since(tB)
	l.hB.Observe(st.StageB)

	// Stage C — inverse 2D transform of each kept plane, then gather the
	// octree samples (the full 3D result is never materialized). Every
	// sample slot is rewritten below, so a recycled output needs no zeroing.
	tC := time.Now()
	spanC := run.Start("conv.stageC")
	if out == nil || out.Tree != l.tree || len(out.Samples) != l.tree.SampleCount() {
		out = sample.NewCompressed(l.tree)
	}
	st.SampleCount = len(out.Samples)
	for slot, z := range l.keptZ {
		plane := planes[slot*n*n : (slot+1)*n*n]
		if err := l.plan2d.InversePlane(plane); err != nil {
			spanC.End()
			return nil, st, err
		}
		for _, g := range l.zIndex[z] {
			out.Samples[g.sample] = real(plane[int(g.y)*n+int(g.x)])
		}
	}

	st.SampleBytes = out.MemoryBytes()
	st.ModelBytes = 8 * n * n * k
	st.PeakBytes = st.SlabBytes + st.PlanesBytes + st.SampleBytes
	st.Compression = out.CompressionRatio()
	spanC.End()
	st.StageC = time.Since(tC)
	l.hC.Observe(st.StageC)
	if tr := l.cfg.Trace; tr != nil {
		tr.Counter("conv.pencils").Add(int64(st.PencilCount))
		tr.Counter("conv.samples").Add(int64(st.SampleCount))
		tr.Counter("conv.sample_bytes").Add(int64(st.SampleBytes))
		// FLOP model: stage A does k 2D plane transforms (n lines per axis),
		// stage B two length-n transforms per pencil, stage C one inverse
		// 2D transform per kept plane.
		perPlane2D := 2 * int64(n) * obs.FFTFlops(n)
		tr.Counter("conv.flops_model").Add(
			int64(k)*perPlane2D +
				int64(st.PencilCount)*2*obs.FFTFlops(n) +
				int64(st.KeptZPlanes)*perPlane2D)
		tr.Gauge("conv.peak_bytes").Max(int64(st.PeakBytes))
	}
	return out, st, nil
}

// slabForward fills the N×N×k slab with 2D transforms of the zero-padded
// sub-domain slices (read from l.runIn), one plane per worker call.
func (l *Local) slabForward(parent *obs.Span) error {
	workers := fft.Workers(l.cfg.Workers)
	fft.ParallelForSpanned(parent, "conv.stageA.worker", l.k, workers, l.fnA)
	return l.ec.Err()
}

// slabPlane is the stage-A worker: scatter one sub-domain slice into its
// zero plane and 2D-transform it.
func (l *Local) slabPlane(w, zi int) {
	if l.ec.Failed() {
		return
	}
	n, k, ox, oy := l.n, l.k, l.ox, l.oy
	plane := l.slabBuf[zi*n*n : (zi+1)*n*n]
	for yy := 0; yy < k; yy++ {
		for xx := 0; xx < k; xx++ {
			plane[(oy+yy)*n+(ox+xx)] = complex(l.runIn.At(xx, yy, zi), 0)
		}
	}
	if err := l.plan2d.ForwardPlane(plane); err != nil {
		l.ec.Record(err)
	}
}

// pencilWorker is the stage-B worker: gather one (x, y) pencil's k slab
// values, forward z transform, pointwise kernel
// multiply, inverse z transform, scatter the kept planes.
func (l *Local) pencilWorker(w, i int) {
	if l.ec.Failed() {
		return
	}
	n := l.n
	p := l.bStart + i
	x := p % n
	y := p / n
	sc := &l.scratch[w]
	// Gather the k slab values of this pencil into a zero line at
	// [oz, oz+k), then forward z transform.
	for j := range sc.spec {
		sc.spec[j] = 0
	}
	for zi := 0; zi < l.k; zi++ {
		sc.spec[l.oz+zi] = l.slabBuf[zi*n*n+p]
	}
	if err := l.planZ.Forward(sc.spec, sc.spec); err != nil {
		l.ec.Record(err)
		return
	}
	// Pointwise kernel multiply — the cuFFT-callback stage.
	for kz := 0; kz < n; kz++ {
		sc.spec[kz] = l.pw(x, y, kz, sc.spec[kz])
	}
	// Inverse z transform; scatter only the sampled planes.
	if err := l.planZ.Inverse(sc.inv, sc.spec); err != nil {
		l.ec.Record(err)
		return
	}
	for slot, z := range l.keptZ {
		l.planesBuf[slot*n*n+p] = sc.inv[z]
	}
}
