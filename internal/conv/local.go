package conv

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
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
// FFTX sketch (Fig. 5). It is called once per tile of fft.Tile adjacent z
// pencils of one kx, the paper's "B pencils at a time": tile[c] is
// component c's tile, N rows of fft.Tile values, row kz holding the
// forward-transformed pencils ky0 … ky0+Tile−1 at kz, pencil j at
// tile[c][Tile·kz+j], rewritten in place. Seeing every component of a
// frequency at once is what lets a tensor kernel (MASSIF's Γ̂) couple them;
// a scalar kernel scales each component alike. Pencils ky ≥ N, which only
// a last tile has when Tile does not divide N, are padding: what the
// callback does to them is dropped. Calls for different tiles run
// concurrently.
//
// The input is real, so the pipeline carries only the half spectrum
// kx ∈ [0, N/2] and rebuilds the rest by Hermitian symmetry. That is only
// right for a callback that keeps the symmetry — applied at −k to the
// conjugate of what it sees at k it must return the conjugate: a real
// spectrum even in ξ, or Γ̂. A run calls it with kx ≤ N/2 and ky0 a
// multiple of Tile only, but it must be defined for every index and any
// ky0: construction probes mirrored pencils and refuses anything else with
// ErrNotHermitian.
type Pointwise func(kx, ky0 int, tile [][]complex128)

// ErrNotHermitian is returned (wrapped with the offending index) by the
// Local constructors for a callback the half-spectrum pipeline would
// silently get wrong.
var ErrNotHermitian = errors.New("conv: pointwise callback is not Hermitian")

// KernelPointwise adapts a scalar kernel to a Pointwise callback.
// Separable kernels (green.Separable) get a fast path: three per-axis
// tables are precomputed once, so the hot tile loop multiplies table
// entries instead of evaluating the transcendental Hat per point: the
// (kx, ky) product once per pencil, and then fft.ScaleTile (an AVX twin
// where the CPU has one) scales each component's tile by it and the kz
// table in one call. Both paths scale the real and imaginary parts by the
// real kernel value: two multiplies, where a complex multiply by
// complex(r, 0) takes four and two adds.
func KernelPointwise(d grid.Dim3, k green.Kernel) Pointwise {
	if s, ok := k.(green.Separable); ok {
		tx := make([]float64, d.Nx)
		for kx := range tx {
			tx[kx] = s.AxisHat(d.Nx, kx)
		}
		ty := make([]float64, d.Ny+fft.Tile-1) // padding pencils read a zero
		for ky := range d.Ny {
			ty[ky] = s.AxisHat(d.Ny, ky)
		}
		tz := make([]float64, d.Nz)
		for kz := range tz {
			tz[kz] = s.AxisHat(d.Nz, kz)
		}
		return func(kx, ky0 int, tile [][]complex128) {
			var txy [fft.Tile]float64
			for j := range txy {
				txy[j] = tx[kx] * ty[ky0+j]
			}
			for _, t := range tile {
				fft.ScaleTile(t, txy, tz)
			}
		}
	}
	return func(kx, ky0 int, tile [][]complex128) {
		pencils := min(fft.Tile, d.Ny-ky0)
		for kz := range d.Nz {
			for j := range pencils {
				r := k.Hat(d, kx, ky0+j, kz)
				for _, t := range tile {
					v := t[fft.Tile*kz+j]
					t[fft.Tile*kz+j] = complex(real(v)*r, imag(v)*r)
				}
			}
		}
	}
}

// Config tunes the local pipeline.
type Config struct {
	Workers int // goroutines for each stage's parallel loop (≤0: GOMAXPROCS)

	// Trace, when non-nil, records per-stage spans ("conv.run",
	// "conv.stageA/B/C"), per-stage latency histograms
	// ("conv.stage_a/b/c_seconds"), per-worker pencil spans, and the
	// counters/gauges behind Stats (conv.pencils, conv.samples,
	// conv.sample_bytes, conv.flops_model, conv.peak_bytes). Nil disables
	// all recording.
	Trace *obs.Trace
}

// Stats reports the footprint and work of one local convolution, the
// quantities behind the paper's Tables 1 and 4. The byte and sample figures
// cover all C components of the pipeline.
type Stats struct {
	SlabBytes   int // x spectra, C×k×k×(N/2+1) complex: stage A's output, stage B's input
	PlanesBytes int // kept rows, C×(N/2+1)×R complex, R = rows of the kept z planes that carry a sample
	SampleBytes int // compressed outputs (samples + octree metadata)
	PeakBytes   int // all of the above plus the per-worker kx blocks: everything a run holds at once
	ModelBytes  int // the paper's 8·N²·k back-of-envelope figure, times C
	KeptZPlanes int
	PencilCount int // z pencils of one component's half spectrum, (N/2+1)·N
	SampleCount int
	Compression float64 // dense result bytes / compressed bytes

	// Per-stage wall time, measured whether or not a Trace is attached, so
	// job timelines can attribute compute latency to stages A/B/C.
	StageA time.Duration // forward x transforms (real rows, two per transform) into the x spectra
	StageB time.Duration // per kx: forward y, z pencils + pointwise, inverse y of the kept planes
	StageC time.Duration // inverse x of the kept rows + octree gather
}

// Local performs the paper's domain-local convolution of one k³ sub-domain
// against a full-grid kernel: the dense N³ result is never materialized;
// the output is the octree-compressed sampling of the full-grid circular
// convolution. All transforms are local — no data leaves the worker until
// the compressed samples are exchanged in the accumulation step. A pipeline
// carries C ≥ 1 component fields through the stages together (C = 1 for a
// scalar kernel, six Voigt components for MASSIF's Γ̂), coupled only inside
// the Pointwise callback.
//
// It carries the half spectrum kx ∈ [0, h), h = N/2+1, one kx at a time:
// stage B takes each through the y, z and inverse y transforms in a
// per-worker block that stays in cache and keeps only the rows stage C
// samples, so neither the h×N×k slab nor a kept z plane is ever held whole.
// Its z pencils go fft.Tile at a time through one tile transform
// (fft.Plan.TileForward, the callback, TileInverse): the forward reads the
// box's k rows of a tile straight from the block, every other z being
// zero, and the inverse writes only the kept planes' rows back into it.
type Local struct {
	dim   grid.Dim3
	sub   grid.Box
	comps int
	pw    Pointwise
	tree  *octree.Tree
	cfg   Config
	plan  *fft.Plan
	perm  []int32 // plan.Perm(): where every copy into or out of a line puts index i

	// Sampling index, a geometry placed at the box (Local.place): the kept
	// z planes in ascending order, the rows that carry a sample (by z, then
	// y; kept plane slot's are rows[rowOff[slot]:rowOff[slot+1]]), both
	// stored at their positions through perm, and each row's gather points,
	// shared with the geometry, whose frame x xpos takes to a line position.
	// zIn and zOut are a tile's z rows in a kx block (see kxSlice): the
	// box's k slices, which the forward reads, and the kept planes' lines,
	// which the inverse writes.
	keptZ    []int32
	rows     []sampleRow
	rowOff   []int
	gather   []gatherPoint
	xpos     []int32
	rowPairs int // Σ over kept planes of ⌈rows/2⌉: stage C's x transforms
	zIn      fft.Rows
	zOut     fft.Rows

	// Reused working buffers (Run is therefore not safe for concurrent
	// use on one Local; create one Local per goroutine): the one pooled buf,
	// cut into the per-worker blocks and the component-major xspec and kept,
	// and the per-worker tiles and line, allocated once so a warm Run
	// performs no heap allocations.
	buf     []complex128
	blocks  []complex128 // per worker: [c][line] of bl lines at stride N+blockPad
	xspec   []complex128 // [c][z][kx][y]: stage A's x transforms
	kept    []complex128 // [c][kx][r]: row r of rows after the inverse y transform
	scratch []tileScratch

	// Fixed geometry, cached at construction.
	n, h, k    int // grid edge, half-spectrum width n/2+1, sub-domain edge
	ox, oy, oz int // sub-domain low corner
	bl         int // lines per component of a kx block: max(k, kept planes)

	// Per-run state read by the prebuilt worker funcs below. The funcs
	// are bound once at construction: a closure literal in Run would be
	// heap-allocated per call (its captures escape into
	// ParallelForSpanned), which is exactly what the steady-state serving
	// path cannot afford.
	runIn  []*grid.Field        // current job's input sub-fields, one per component
	runOut []*sample.Compressed // current job's outputs, one per component
	ec     fft.FirstError       // per-run first-error collector
	fnA    func(w, i int)
	fnB    func(w, i int)
	fnC    func(w, i int)

	// Array backing for the one-element slices RunInto hands RunComponents,
	// so the scalar warm path allocates nothing.
	in1  [1]*grid.Field
	out1 [1]*sample.Compressed

	// Per-stage latency histograms, cached at construction so Run does no
	// registry lookups (nil when cfg.Trace is nil; Observe is nil-safe).
	hA, hB, hC *obs.Histogram
}

// sampleRow is one row of a kept plane, at column position y, and its
// gather points, gather[lo:hi].
type sampleRow struct {
	y      int32
	lo, hi int32
}

// gatherPoint is one sample, at frame x (line position xpos[x]).
type gatherPoint struct {
	x      int32
	sample int32
}

// blockPad pads a kx block's line stride past N, so that at a power-of-two
// N the block lines a tile reads do not all map to one cache set, and so
// that every tile reads and writes whole rows of fft.Tile columns: the last
// tile of an N that Tile does not divide runs into the pad, and its
// padding pencils carry the pad's values, which go no further.
const blockPad = fft.Tile

// tileScratch is one worker's reusable tiles, one per component, as the
// callback takes them, and one length-n work line: stages A and C
// transform in it, and a tile uses it where it runs through the line
// kernel (fft.Plan.TileForward).
type tileScratch struct {
	tile [][]complex128
	line []complex128
}

// NewLocal builds a local-convolution pipeline for sub-domain box sub of
// an N³ grid (dim), with the sampling octree tree (typically from
// sample.Policy) and the frequency-domain callback pw. The transform plan
// is built privately; use PlanSet.NewLocal to share it across pipelines
// on the same grid, and PlanSet.NewPolicyLocal to share the sampling index
// too.
func NewLocal(dim grid.Dim3, sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	ps, err := NewPlanSet(dim, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return ps.NewLocal(sub, tree, pw, cfg)
}

// NewLocalComponents builds a pipeline that carries comps component fields
// of one sub-domain box through the shared plan together; pw sees all
// comps component tiles of four pencils at once and must pass the Hermitian
// probe (ErrNotHermitian otherwise). cfg must resolve to the set's
// effective worker count. The sampling index is built from tree in sub's
// frame, and the pipeline keeps tree itself.
func (ps *PlanSet) NewLocalComponents(sub grid.Box, tree *octree.Tree, comps int, pw Pointwise, cfg Config) (*Local, error) {
	if tree.Dim != ps.dim {
		return nil, fmt.Errorf("conv: tree dims %v != grid dims %v", tree.Dim, ps.dim)
	}
	if err := ps.check(sub, comps, cfg); err != nil {
		return nil, err
	}
	return ps.build(newGeometry(tree, sub.Lo), sub, comps, pw, cfg)
}

// NewPolicyLocal builds a one-component pipeline for box p.Sub sampled by
// policy p's tree. Where that tree is the translate of the policy's origin
// box tree — every box of a regular decomposition at N/k ≤ 4 — the pipeline
// is placed from the origin box's geometry, built once per plan set, and
// costs O(N + rows + cells); its tree lists the origin tree's cells, moved,
// in the origin tree's order. Any other box gets its own tree's geometry.
// Either way its samples are those of NewLocal with p.Tree, bit for bit.
func (ps *PlanSet) NewPolicyLocal(p sample.Policy, pw Pointwise, cfg Config) (*Local, error) {
	if err := ps.check(p.Sub, 1, cfg); err != nil {
		return nil, err
	}
	g, err := ps.policyGeometry(p)
	if err != nil {
		return nil, err
	}
	return ps.build(g, p.Sub, 1, pw, cfg)
}

// check validates a pipeline's shape against the set.
func (ps *PlanSet) check(sub grid.Box, comps int, cfg Config) error {
	if fft.Workers(cfg.Workers) != ps.workers {
		return fmt.Errorf("conv: cfg workers %d do not match plan set workers %d",
			fft.Workers(cfg.Workers), ps.workers)
	}
	if comps < 1 {
		return fmt.Errorf("conv: component count %d must be ≥ 1", comps)
	}
	dim := ps.dim
	if dim.Nx != dim.Ny || dim.Ny != dim.Nz {
		return fmt.Errorf("conv: grid %v must be cubic", dim)
	}
	if !dim.Bounds().ContainsBox(sub) {
		return fmt.Errorf("conv: sub-domain %v outside grid %v", sub, dim)
	}
	s := sub.Size()
	if s[0] != s[1] || s[1] != s[2] {
		return fmt.Errorf("conv: sub-domain %v must be cubic", sub)
	}
	if s[0] < 1 {
		return fmt.Errorf("conv: sub-domain size %d must be ≥ 1", s[0])
	}
	return nil
}

// build is every constructor's last step: the pipeline for box sub, placed
// from geometry g.
func (ps *PlanSet) build(g *geometry, sub grid.Box, comps int, pw Pointwise, cfg Config) (*Local, error) {
	n, k := ps.dim.Nx, sub.Size()[0]
	if err := probeHermitian(n, comps, pw); err != nil {
		return nil, err
	}
	l := &Local{dim: ps.dim, sub: sub, comps: comps, pw: pw, cfg: cfg, plan: ps.plan, perm: ps.plan.Perm()}
	l.scratch = make([]tileScratch, ps.workers)
	for w := range l.scratch {
		sc := &l.scratch[w]
		lines := make([]complex128, (fft.Tile*comps+1)*n)
		sc.tile = make([][]complex128, comps)
		for c := range sc.tile {
			sc.tile[c] = lines[fft.Tile*c*n : fft.Tile*(c+1)*n : fft.Tile*(c+1)*n]
		}
		sc.line = lines[fft.Tile*comps*n:]
	}
	l.n, l.h, l.k = n, n/2+1, k
	l.ox, l.oy, l.oz = sub.Lo[0], sub.Lo[1], sub.Lo[2]
	l.fnA = l.recorded(l.xSlice)
	l.fnB = l.recorded(l.kxSlice)
	l.fnC = l.recorded(l.keptPlane)
	l.place(g)
	l.bl = max(k, len(l.keptZ))
	if err := l.tileRows(); err != nil {
		return nil, err
	}
	l.hA = cfg.Trace.Histogram("conv.stage_a_seconds")
	l.hB = cfg.Trace.Histogram("conv.stage_b_seconds")
	l.hC = cfg.Trace.Histogram("conv.stage_c_seconds")
	return l, nil
}

// probeHermitian checks, on a handful of (kx, ky) and their negations, that
// pw applied at −k to the conjugate-mirrored pencil returns the conjugate
// mirror of what it returns at k, to 1e-9 of the largest output, both
// measured by the larger of a value's two parts. Probe i puts its pencil in
// lane j = min(i, Tile−1, ky) of a tile at (kx, ky − j), so that the five
// probes cover every lane, and its mirror in lane 0 of an otherwise zero
// tile at (−kx, −ky). The self-conjugate pairs — (0, 0), (N/2, N/2) — test
// the symmetry in kz alone; (N/2, 1) is the mixed-Nyquist case a
// direction-dependent kernel gets wrong unless it zeroes those modes. The
// probe values are a splitmix64 stream, uniform in [−1, 1), seeded alike on
// every call; every lane of a probe tile takes the same line.
func probeHermitian(n, comps int, pw Pointwise) error {
	const T = fft.Tile
	neg := func(i int) int { return (n - i) % n }
	size := func(c complex128) float64 { return max(math.Abs(real(c)), math.Abs(imag(c))) }
	tiles := make([]complex128, 2*comps*T*n)
	a := make([][]complex128, comps)
	b := make([][]complex128, comps)
	for c := range a {
		a[c] = tiles[2*c*T*n : (2*c+1)*T*n]
		b[c] = tiles[(2*c+1)*T*n : (2*c+2)*T*n]
	}
	var seed uint64
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return float64(int64(z^z>>31)>>11) / (1 << 52)
	}
	for i, p := range [][2]int{{0, 0}, {n / 2, 1 % n}, {n / 2, n / 2}, {1 % n, 2 % n}, {3 % n, n - 1}} {
		kx, ky := p[0], p[1]
		j := min(i, T-1, ky)
		for c := range a {
			clear(b[c])
			for kz := 0; kz < n; kz++ {
				v := complex(next(), next())
				for l := range T {
					a[c][T*kz+l] = v
				}
				b[c][T*neg(kz)] = cmplx.Conj(v)
			}
		}
		pw(kx, ky-j, a)
		pw(neg(kx), neg(ky), b)
		var scale float64
		for c := range a {
			for kz := 0; kz < n; kz++ {
				scale = max(scale, size(a[c][T*kz+j]))
			}
		}
		for c := range a {
			for kz := 0; kz < n; kz++ {
				v, w := b[c][T*kz], a[c][T*neg(kz)+j]
				if d := size(v - cmplx.Conj(w)); !(d <= 1e-9*scale) {
					return fmt.Errorf("conv: component %d at (kx, ky, kz) = (%d, %d, %d) and its negation differ by %.3g of %.3g: %w",
						c, kx, ky, neg(kz), d, scale, ErrNotHermitian)
				}
			}
		}
	}
	return nil
}

// Tree returns the sampling octree used by the pipeline.
func (l *Local) Tree() *octree.Tree { return l.tree }

// ReleaseBuffers hands the pipeline's buffer to a pool that the next run of
// any pipeline draws from, so a caller that streams many pipelines one at a
// time — or builds one per box and runs it once — holds one live buffer
// between runs and allocates (and zeroes) none after the first. It is never
// cleared: the stages write, or clear, every element before reading it, but
// for the block's pad columns, whose values a last tile's padding pencils
// carry and drop.
func (l *Local) ReleaseBuffers() {
	putBuffer(l.buf)
	l.buf, l.xspec, l.kept, l.blocks = nil, nil, nil, nil
}

// bufferPool recycles pipeline buffers across pipelines.
var bufferPool sync.Pool // of *[]complex128

func putBuffer(b []complex128) {
	if cap(b) > 0 {
		bufferPool.Put(&b)
	}
}

// takeBuffer returns n elements of unspecified content, recycled when the
// pool's next buffer is large enough.
func takeBuffer(n int) []complex128 {
	if p, _ := bufferPool.Get().(*[]complex128); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]complex128, n)
}

// Run convolves the k³ sub-domain field (dimensions equal to the
// sub-domain box) and returns the compressed result plus footprint stats.
func (l *Local) Run(subField *grid.Field) (*sample.Compressed, Stats, error) {
	return l.RunInto(subField, nil)
}

// RunInto is Run with an optional caller-provided output arena: when out
// was built for this pipeline's tree (same tree, full sample storage), its
// samples are overwritten in place and no output allocation happens — the
// steady-state path of a serving engine recycling result buffers. Any
// other out (nil included) falls back to a fresh allocation. It is the
// one-component case of RunComponents.
func (l *Local) RunInto(subField *grid.Field, out *sample.Compressed) (*sample.Compressed, Stats, error) {
	if l.comps != 1 {
		return nil, Stats{}, fmt.Errorf("conv: RunInto on a %d-component pipeline (use RunComponents)", l.comps)
	}
	l.in1[0], l.out1[0] = subField, out
	st, err := l.RunComponents(l.in1[:], l.out1[:])
	out = l.out1[0]
	l.in1[0], l.out1[0] = nil, nil
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// RunComponents convolves the pipeline's C component fields of one
// sub-domain together: in[c] is component c's k³ field and outs[c] receives
// its compressed result. Each outs[c] is recycled under RunInto's rule and
// replaced by a fresh allocation otherwise, so a caller that passes the
// same outs back run after run allocates nothing.
func (l *Local) RunComponents(in []*grid.Field, outs []*sample.Compressed) (Stats, error) {
	var st Stats
	if len(in) != l.comps || len(outs) != l.comps {
		return st, fmt.Errorf("conv: %d inputs and %d outputs for a %d-component pipeline", len(in), len(outs), l.comps)
	}
	s := l.sub.Size()
	for _, f := range in {
		if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != f.Dim {
			return st, fmt.Errorf("conv: sub field %v does not match box %v", f.Dim, l.sub)
		}
	}
	n, h, k, comps := l.n, l.h, l.k, l.comps
	l.ec.Reset()
	run := l.cfg.Trace.Start("conv.run")
	defer run.End()

	// Stage A — forward x transforms of the k rows of every sub-domain
	// slice, two real rows per complex transform, into the x spectra.
	tA, spanA := time.Now(), run.Start("conv.stageA")
	nz := len(l.keptZ)
	xn, kn := comps*k*k*h, comps*h*len(l.rows)
	bw := min(fft.Workers(l.cfg.Workers), h) // stage-B workers, one block each
	bn := bw * comps * l.bl * (n + blockPad)
	if size := bn + xn + kn; len(l.buf) != size {
		l.buf = takeBuffer(size)
	}
	// The blocks come first: at the start of a large buffer their tile rows
	// are cache-line aligned.
	l.blocks, l.xspec, l.kept = l.buf[:bn], l.buf[bn:bn+xn], l.buf[bn+xn:]
	st.SlabBytes, st.PlanesBytes = 16*xn, 16*kn
	st.KeptZPlanes, st.PencilCount = nz, h*n
	l.runIn = in
	var err error
	st.StageA, err = l.stage(spanA, tA, "conv.stageA.worker", comps*k, l.fnA, l.hA)
	l.runIn = nil // input is only read in stage A; don't retain it
	if err != nil {
		return st, err
	}

	// Stage B — per kx, forward y transforms, its N z pencils four at a
	// time, one tile transform each way with the pointwise callback between
	// ("1D transforms of B pencils at a time in the z-dimension"), inverse y
	// of the kept z planes, the sampled rows kept.
	tB, spanB := time.Now(), run.Start("conv.stageB")
	if st.StageB, err = l.stage(spanB, tB, "conv.stageB.worker", h, l.fnB, l.hB); err != nil {
		return st, err
	}

	// Stage C — per kept plane, the inverse x transform of its kept rows
	// and the octree gather (the full 3D result is never materialized).
	// Every sample slot is rewritten, so a recycled output needs no zeroing.
	tC, spanC := time.Now(), run.Start("conv.stageC")
	for c, out := range outs {
		if out == nil || out.Tree != l.tree || len(out.Samples) != l.tree.SampleCount() {
			out = sample.NewCompressed(l.tree)
			outs[c] = out
		}
		st.SampleCount += len(out.Samples)
		st.SampleBytes += out.MemoryBytes()
	}
	l.runOut = outs
	st.StageC, err = l.stage(spanC, tC, "conv.stageC.worker", comps*nz, l.fnC, l.hC)
	l.runOut = nil
	if err != nil {
		return st, err
	}
	st.ModelBytes = 8 * comps * n * n * k
	st.PeakBytes = 16*len(l.buf) + st.SampleBytes
	st.Compression = outs[0].CompressionRatio()
	if tr := l.cfg.Trace; tr != nil {
		tr.Counter("conv.pencils").Add(int64(st.PencilCount))
		tr.Counter("conv.samples").Add(int64(st.SampleCount))
		tr.Counter("conv.sample_bytes").Add(int64(st.SampleBytes))
		// FLOP model in length-n transforms per component: stage A does
		// ⌈k/2⌉ packed row pairs per slice, stage B k columns, two per
		// pencil and nz kept lines per kx, stage C one per pair of kept rows.
		lines := k*((k+1)/2+h) + 2*h*n + nz*h + l.rowPairs
		tr.Counter("conv.flops_model").Add(int64(comps) * int64(lines) * obs.FFTFlops(n))
		tr.Gauge("conv.peak_bytes").Max(int64(st.PeakBytes))
	}
	return st, nil
}

// stage finishes the stage begun at t0 under span: count work items on the
// pipeline's workers, each worker under span worker. It returns the stage's
// wall time, observed into hist, or the first error a worker recorded.
func (l *Local) stage(span *obs.Span, t0 time.Time, worker string, count int, fn func(w, i int), hist *obs.Histogram) (time.Duration, error) {
	fft.ParallelForSpanned(span, worker, count, fft.Workers(l.cfg.Workers), fn)
	span.End()
	if err := l.ec.Err(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	hist.Observe(d)
	return d, nil
}

// recorded adapts a stage worker to fft.ParallelFor: its error goes to the
// run's collector, and once any worker has failed the rest do nothing.
func (l *Local) recorded(f func(w, i int) error) func(w, i int) {
	return func(w, i int) {
		if !l.ec.Failed() {
			l.ec.Record(f(w, i))
		}
	}
}

// xSlice is the stage-A worker for slice i%k of component i/k (read from
// l.runIn). The k rows are transformed along x two at a time: rows a, b
// packed as a + i·b go through one complex transform and come apart by
// symmetry, F(a)[kx] = (Z[kx] + conj Z[−kx])/2 and F(b)[kx] =
// (Z[kx] − conj Z[−kx])/2i, written to the rows' x spectra. The packed row
// is placed through perm, so the transform starts without a reorder.
func (l *Local) xSlice(w, i int) error {
	n, h, k := l.n, l.h, l.k
	rows := l.runIn[i/k].Data[(i%k)*k*k:][:k*k]
	xs := l.xspec[i*k*h:][:k*h]
	line := l.scratch[w].line
	px := l.perm[l.ox : l.ox+k]
	for yy := 0; yy < k; yy += 2 {
		paired := yy+1 < k
		a := rows[yy*k : (yy+1)*k]
		b := a
		if paired {
			b = rows[(yy+1)*k : (yy+2)*k]
		}
		clear(line)
		for xx, v := range a {
			if paired {
				line[px[xx]] = complex(v, b[xx])
			} else {
				line[px[xx]] = complex(v, 0)
			}
		}
		if err := l.plan.ForwardFromPerm(line); err != nil {
			return err
		}
		// Row yy's spectrum lies at stride k, where stage B reads slice i's
		// column kx as one run.
		xa, xb := xs[yy:], xs[yy:] // xb is row yy+1's, when paired
		xa[0] = complex(real(line[0]), 0)
		if paired {
			xb = xs[yy+1:]
			xb[0] = complex(imag(line[0]), 0)
		}
		for kx := 1; kx < h; kx++ {
			zk, zm := line[kx], line[n-kx]
			sum := complex(real(zk)+real(zm), imag(zk)-imag(zm)) // Z[kx] + conj Z[−kx]
			xa[kx*k] = complex(real(sum)/2, imag(sum)/2)
			if paired {
				dif := complex(real(zk)-real(zm), imag(zk)+imag(zm)) // Z[kx] − conj Z[−kx]
				xb[kx*k] = complex(imag(dif)/2, -real(dif)/2)
			}
		}
	}
	return nil
}

// kxSlice is the stage-B worker for frequency kx, in worker w's block of
// bl lines per component: line zi takes the y transform of slice zi's
// column kx, placed through perm into a cleared line; zTile carries the z
// pencils, leaving kept plane slot in line slot; each kept line is inverse
// y transformed in place and its rows that carry a sample are copied out.
func (l *Local) kxSlice(w, kx int) error {
	n, h, k, comps, bl := l.n, l.h, l.k, l.comps, l.bl
	ls := n + blockPad
	blk := l.blocks[w*comps*bl*ls:][:comps*bl*ls]
	py := l.perm[l.oy : l.oy+k]
	for c := 0; c < comps; c++ {
		for zi := 0; zi < k; zi++ {
			line := blk[(c*bl+zi)*ls:][:n]
			col := l.xspec[((c*k+zi)*h+kx)*k:][:len(py)]
			clear(line)
			for yy, y := range py {
				line[y] = col[yy]
			}
			if err := l.plan.ForwardFromPerm(line); err != nil {
				return err
			}
		}
	}
	sc := &l.scratch[w]
	for ky0 := 0; ky0 < n; ky0 += fft.Tile {
		if err := l.zTile(sc, blk, kx, ky0); err != nil {
			return err
		}
	}
	nr := len(l.rows)
	for c := 0; c < comps; c++ {
		kept := l.kept[(c*h+kx)*nr:][:nr]
		for slot := range l.keptZ {
			line := blk[(c*bl+slot)*ls:][:n]
			if err := l.plan.InverseToPerm(line); err != nil {
				return err
			}
			for r := l.rowOff[slot]; r < l.rowOff[slot+1]; r++ {
				kept[r] = line[l.rows[r].y]
			}
		}
	}
	return nil
}

// zTile carries the z pencils of ky ∈ [ky0, ky0+fft.Tile) of frequency kx
// through one tile transform per component: the forward reads the tile's
// row of each of the box's k block lines (l.zIn), the callback sees every
// component's tile, and the inverse writes kept plane slot's row to block
// line slot at the tile's columns (l.zOut), which every forward of the
// tile has already read.
func (l *Local) zTile(sc *tileScratch, blk []complex128, kx, ky0 int) error {
	cs := l.bl * (l.n + blockPad) // one component's block
	for c, t := range sc.tile {
		if err := l.plan.TileForward(t, blk[c*cs+ky0:], l.zIn, sc.line); err != nil {
			return err
		}
	}
	// Pointwise kernel multiply — the cuFFT-callback stage.
	l.pw(kx, ky0, sc.tile)
	for c, t := range sc.tile {
		if err := l.plan.TileInverse(t, blk[c*cs+ky0:], l.zOut, sc.line); err != nil {
			return err
		}
	}
	return nil
}

// tileRows builds zIn and zOut, offsets from a tile's first column in one
// component's block: z position i of a tile is block line z − oz where the
// box holds the plane at i, and kept plane slot's position is line slot.
func (l *Local) tileRows() error {
	ls := int32(l.n + blockPad)
	in, out := make([]int32, l.n), make([]int32, l.n)
	for i, z := range l.perm {
		in[i], out[i] = -1, -1
		if zi := int(z) - l.oz; zi >= 0 && zi < l.k {
			in[i] = int32(zi) * ls
		}
	}
	for slot, i := range l.keptZ {
		out[i] = int32(slot) * ls
	}
	var err error
	if l.zIn, err = l.plan.Rows(in); err != nil {
		return err
	}
	l.zOut, err = l.plan.Rows(out)
	return err
}

// keptPlane is the stage-C worker for kept plane i%nz of component i/nz:
// the inverse x transform of its kept rows, two per transform. Rows a, b
// with half spectra Â, B̂ are packed as Z = Â + i·B̂, extended to the
// negative kx by Hermitian symmetry with the DC and Nyquist terms taken
// real, so F⁻¹Z = a + i·b; the samples are gathered from that line, which
// the inverse leaves in perm order, where xpos points.
func (l *Local) keptPlane(w, i int) error {
	n, h, nr, nz := l.n, l.h, len(l.rows), len(l.keptZ)
	c, slot := i/nz, i%nz
	kept := l.kept[c*h*nr:][:h*nr] // row r's value at kx is kept[kx*nr+r]
	out, xpos := l.runOut[c].Samples, l.xpos
	line := l.scratch[w].line
	end := l.rowOff[slot+1]
	for ra := l.rowOff[slot]; ra < end; ra += 2 {
		// An unpaired last row rides with itself; its imaginary half is
		// not gathered.
		rb := min(ra+1, end-1)
		pa, pb := kept[ra:], kept[rb:]
		line[0] = complex(real(pa[0]), real(pb[0]))
		for kx := 1; kx < n-h+1; kx++ {
			a, b := pa[kx*nr], pb[kx*nr]
			line[kx] = complex(real(a)-imag(b), imag(a)+real(b))   // Â + i·B̂
			line[n-kx] = complex(real(a)+imag(b), real(b)-imag(a)) // conj Â + i·conj B̂
		}
		if n%2 == 0 {
			line[n/2] = complex(real(pa[n/2*nr]), real(pb[n/2*nr]))
		}
		if err := l.plan.InverseToPerm(line); err != nil {
			return err
		}
		for _, g := range l.gather[l.rows[ra].lo:l.rows[ra].hi] {
			out[g.sample] = real(line[xpos[g.x]])
		}
		if rb != ra {
			for _, g := range l.gather[l.rows[rb].lo:l.rows[rb].hi] {
				out[g.sample] = imag(line[xpos[g.x]])
			}
		}
	}
	return nil
}
