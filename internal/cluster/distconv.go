package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// DistFFTConvolve runs the traditional distributed FFT convolution of
// Fig. 1a on P simulated workers with slab decomposition: each worker owns
// N/P z-planes, 2D-transforms them, all-to-all transposes to y-slabs for
// the z-direction 1D FFTs and the kernel multiply, transposes back, and
// 2D-inverse-transforms. Two all-to-all rounds of the full (complex) grid
// cross the fabric — the communication the paper eliminates. (Pencil
// decompositions as modeled by Eq. 1 need two transposes per FFT, four per
// convolution; slab needs one per FFT, so the measured traffic here is a
// lower bound for the traditional method.)
func DistFFTConvolve(c *Cluster, f *grid.Field, kernel green.Kernel) (*grid.Field, error) {
	d := f.Dim
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	p := c.P
	if n%p != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, p)
	}
	zPer := n / p
	plan2d, err := fft.NewPlan2D(n, n, 1)
	if err != nil {
		return nil, err
	}
	planZ, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}

	out := grid.NewField(d)
	err = c.Run(func(w *Worker) error {
		// Local slab: z ∈ [z0, z1), complex, plane-major.
		z0 := w.ID * zPer
		slab := make([]complex128, n*n*zPer)
		for zi := 0; zi < zPer; zi++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					slab[zi*n*n+y*n+x] = complex(f.At(x, y, z0+zi), 0)
				}
			}
		}
		// Stage 1: local 2D transforms.
		for zi := 0; zi < zPer; zi++ {
			if err := plan2d.ForwardPlane(slab[zi*n*n : (zi+1)*n*n]); err != nil {
				return err
			}
		}
		// Stage 2: all-to-all transpose z-slabs → y-slabs.
		ySlab, err := w.TransposeZY(slab, n, zPer, false)
		if err != nil {
			return err
		}
		// Stage 3–5: z-direction FFT, kernel multiply, inverse z FFT —
		// all local to the worker's y range.
		y0 := w.ID * zPer
		pencil := make([]complex128, n)
		for yi := 0; yi < zPer; yi++ {
			for x := 0; x < n; x++ {
				for z := 0; z < n; z++ {
					pencil[z] = ySlab[z*n*zPer+yi*n+x]
				}
				if err := planZ.Forward(pencil, pencil); err != nil {
					return err
				}
				for kz := 0; kz < n; kz++ {
					pencil[kz] *= complex(kernel.Hat(d, x, y0+yi, kz), 0)
				}
				if err := planZ.Inverse(pencil, pencil); err != nil {
					return err
				}
				for z := 0; z < n; z++ {
					ySlab[z*n*zPer+yi*n+x] = pencil[z]
				}
			}
		}
		// Stage 6: all-to-all transpose back to z-slabs.
		slab, err = w.TransposeZY(ySlab, n, zPer, true)
		if err != nil {
			return err
		}
		// Stage 7: local inverse 2D transforms, write the owned planes.
		for zi := 0; zi < zPer; zi++ {
			plane := slab[zi*n*n : (zi+1)*n*n]
			if err := plan2d.InversePlane(plane); err != nil {
				return err
			}
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					out.Set(x, y, z0+zi, real(plane[y*n+x]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TransposeZY exchanges a z-slab (per planes of n×n, plane-major) for a
// y-slab (n z-planes of per×n rows owned in y) via one all-to-all, or the
// reverse when back is true — the building block of slab-decomposed
// distributed FFTs, exported so distributed solvers can reuse it. Layouts:
//
//	z-slab: idx = zi*n*n + y*n + x          (zi local, y global)
//	y-slab: idx = z*n*per + yi*n + x        (z global, yi local)
func (w *Worker) TransposeZY(in []complex128, n, per int, back bool) ([]complex128, error) {
	p := w.c.P
	out := make([][]float64, p)
	for q := 0; q < p; q++ {
		// Block destined for worker q: my z (or y) range × q's y (or z) range.
		buf := make([]float64, 2*per*per*n)
		i := 0
		for a := 0; a < per; a++ { // my local plane index
			for b := 0; b < per; b++ { // q's local index
				for x := 0; x < n; x++ {
					var v complex128
					if back {
						// in is y-slab: a = my yi, global z = q*per + b.
						v = in[(q*per+b)*n*per+a*n+x]
					} else {
						// in is z-slab: a = my zi, global y = q*per + b.
						v = in[a*n*n+(q*per+b)*n+x]
					}
					buf[i] = real(v)
					buf[i+1] = imag(v)
					i += 2
				}
			}
		}
		out[q] = buf
	}
	recv, err := w.AllToAll(out)
	if err != nil {
		return nil, err
	}
	res := make([]complex128, n*n*per)
	for q := 0; q < p; q++ {
		buf := recv[q]
		i := 0
		for a := 0; a < per; a++ { // sender's local index
			for b := 0; b < per; b++ { // my local index
				for x := 0; x < n; x++ {
					v := complex(buf[i], buf[i+1])
					i += 2
					if back {
						// Receiving z-slab rows: my zi = b, global y = q*per + a.
						res[b*n*n+(q*per+a)*n+x] = v
					} else {
						// Receiving y-slab rows: my yi = b, global z = q*per + a.
						res[(q*per+a)*n*per+b*n+x] = v
					}
				}
			}
		}
	}
	return res, nil
}

// LowCommResult is the outcome of the proposed distributed convolution.
// On a faulty fabric the exchange degrades instead of failing: Missing
// lists workers declared dead during the sparse exchange, MissingBoxes
// their sub-domains (whose contributions are absent from the
// accumulation), LostRegions the output z-slabs a dead worker owned and
// therefore never assembled, and Bound carries the missing-mass widening
// of the Taylor error bound covering the omitted contributions.
type LowCommResult struct {
	Field        *grid.Field
	SampleBytes  int64 // compressed bytes that crossed the fabric
	Missing      []int
	MissingBoxes []grid.Box
	LostRegions  []grid.Box
	Bound        sample.ErrorBound
	Degraded     bool
}

// MissingMassBound bounds the contribution omitted when the sub-domains in
// boxes never reach the accumulation: for circular convolution,
// ‖f·1_B ⊛ g‖₂ ≤ max|ĝ|·‖f·1_B‖₂ and ‖f·1_B ⊛ g‖_∞ ≤ ‖f·1_B‖₂·‖g‖₂
// (Young/Cauchy–Schwarz through Parseval). L2 is reported as an RMS over
// the grid, commensurate with sample.ErrorBound.L2.
func MissingMassBound(f *grid.Field, kernel green.Kernel, boxes []grid.Box) sample.MissingMass {
	if len(boxes) == 0 {
		return sample.MissingMass{}
	}
	d := f.Dim
	maxHat, sumHat2 := 0.0, 0.0
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				h := kernel.Hat(d, x, y, z)
				if h < 0 {
					h = -h
				}
				if h > maxHat {
					maxHat = h
				}
				sumHat2 += h * h
			}
		}
	}
	norm := sample.BoxRestrictedL2(f, boxes)
	n3 := float64(d.Len())
	return sample.MissingMass{
		L2:   maxHat * norm / math.Sqrt(n3),
		LInf: norm * math.Sqrt(sumHat2/n3),
	}
}

// ExchangeMessages builds the sparse exchange's per-peer payloads: for
// each peer q, every patch of the worker's compressed results that
// intersects q's output region, encoded as one flat message. Shared by
// LowCommConvolve and fleet's cluster spill (with computed samples) and
// LowCommExchangeBytes (with zero-valued samples — the encoding length is
// sample-independent).
func ExchangeMessages(results []*sample.Compressed, p int, region func(int) grid.Box) [][]float64 {
	msgs := make([][]float64, p)
	for q := 0; q < p; q++ {
		var patches []sample.Patch
		for _, res := range results {
			patches = append(patches, res.Patches(region(q))...)
		}
		msgs[q] = sample.EncodePatches(patches)
	}
	return msgs
}

// LowCommExchangeBytes predicts, exactly, the fabric bytes the single
// sparse exchange of LowCommConvolve(d, subSize, farRate) will move on P
// healthy workers: Σ over workers w and peers q≠w of 8·len(msg[w→q]). The
// patch layout depends only on the decomposition and sampling octrees —
// never on field values — so the prediction is computed from zero-filled
// compressed results without running any transforms. This is the
// implementation-exact counterpart of the Eq. 6 model figure TOursBytes
// (which ignores patch metadata and counts each worker's whole output
// once rather than per-peer slab intersections).
func LowCommExchangeBytes(d grid.Dim3, p, subSize, farRate int) (int64, error) {
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return 0, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	if p < 1 || n%p != 0 {
		return 0, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, p)
	}
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return 0, err
	}
	parts, err := grid.Partition(boxes, p)
	if err != nil {
		return 0, err
	}
	zPer := n / p
	region := func(q int) grid.Box {
		return grid.BoxAt(grid.Point{0, 0, q * zPer}, n, n, zPer)
	}
	total := int64(0)
	for w := 0; w < p; w++ {
		var results []*sample.Compressed
		for _, b := range parts[w] {
			tree, err := sample.DefaultPolicy(b, farRate).Tree(d)
			if err != nil {
				return 0, err
			}
			results = append(results, sample.NewCompressed(tree))
		}
		msgs := ExchangeMessages(results, p, region)
		for q := 0; q < p; q++ {
			if q == w {
				continue
			}
			total += int64(8 * len(msgs[q]))
		}
	}
	return total, nil
}

// LowCommConvolve runs the proposed method of Fig. 1b on P simulated
// workers: sub-domains are partitioned round-robin; every worker convolves
// its sub-domains locally (slab/pencil pipeline with octree
// sampling — zero communication), then a single all-to-all ships to each
// peer only the patches intersecting that peer's output z-slab; each
// worker accumulates its region by interpolation.
//
// On a fault-injecting transport the single exchange is survivable:
// transient drops, delays, duplicates, and corruption heal through the
// deadline/retry layer; a worker dead after retries are exhausted degrades
// the result (its contributions are omitted and the omission is folded
// into the returned Taylor bound) instead of deadlocking the exchange.
func LowCommConvolve(c *Cluster, f *grid.Field, kernel green.Kernel, subSize, farRate int, cfg conv.Config) (*LowCommResult, error) {
	d := f.Dim
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	p := c.P
	if n%p != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, p)
	}
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return nil, err
	}
	parts, err := grid.Partition(boxes, p)
	if err != nil {
		return nil, err
	}
	zPer := n / p
	region := func(q int) grid.Box {
		return grid.BoxAt(grid.Point{0, 0, q * zPer}, n, n, zPer)
	}

	// One plan set and one kernel table for the call: both are read-only
	// and shared by every worker's pipelines.
	plans, err := conv.NewPlanSet(d, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pw := conv.KernelPointwise(d, kernel)

	out := grid.NewField(d)
	var missingMu sync.Mutex
	missingSet := map[int]bool{}
	bytesBefore, _, _, _ := c.Stats.Snapshot()
	workerFn := func(w *Worker) error {
		// Local convolutions — no communication at all (Fig. 1b: "the
		// FFT-based convolution computation is local to the workers till
		// the last step").
		var results []*sample.Compressed
		for _, b := range parts[w.ID] {
			subField, err := f.ExtractBox(b)
			if err != nil {
				return err
			}
			tree, err := sample.DefaultPolicy(b, farRate).Tree(d)
			if err != nil {
				return err
			}
			local, err := plans.NewLocal(b, tree, pw, cfg)
			if err != nil {
				return err
			}
			res, _, err := local.Run(subField)
			local.ReleaseBuffers()
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		// The single sparse exchange: patches intersecting each peer's
		// output region.
		msgs := ExchangeMessages(results, p, region)
		recv, missing, err := w.AllToAllFT(msgs)
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			missingMu.Lock()
			for _, q := range missing {
				missingSet[q] = true
			}
			missingMu.Unlock()
		}
		// Accumulate the owned region (Algorithm 2 line 6); dead peers'
		// contributions are absent and covered by the missing-mass bound.
		mine := region(w.ID)
		for q := 0; q < p; q++ {
			if recv[q] == nil {
				continue
			}
			patches, err := sample.DecodePatches(recv[q])
			if err != nil {
				return err
			}
			for _, patch := range patches {
				if err := patch.AddToRegion(out, mine, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	errs := c.RunAll(workerFn)
	for rank, e := range errs {
		if e == nil {
			continue
		}
		var ce *CrashError
		var fe *FaultError
		if errors.As(e, &ce) || errors.As(e, &fe) {
			// The rank died (injected crash) or could not complete its own
			// receives (its peers were all declared dead from its side) —
			// degrade: drop its contributions, surrender its output slab.
			missingMu.Lock()
			missingSet[rank] = true
			missingMu.Unlock()
			continue
		}
		return nil, e
	}
	res := &LowCommResult{Field: out}
	bytesAfter, _, _, _ := c.Stats.Snapshot()
	res.SampleBytes = bytesAfter - bytesBefore
	if len(missingSet) > 0 {
		res.Degraded = true
		for q := range missingSet {
			res.Missing = append(res.Missing, q)
		}
		sort.Ints(res.Missing)
		for _, q := range res.Missing {
			res.MissingBoxes = append(res.MissingBoxes, parts[q]...)
			res.LostRegions = append(res.LostRegions, region(q))
		}
		res.Bound.Missing = MissingMassBound(f, kernel, res.MissingBoxes)
	}
	return res, nil
}
