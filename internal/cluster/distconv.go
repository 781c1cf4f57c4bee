package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// LowCommResult is the outcome of the proposed distributed convolution.
type LowCommResult struct {
	Field       *grid.Field
	FabricBytes int64         // bytes that crossed the fabric (cluster.Stats), aborted generations included
	Generations int           // worker generations run; 1 when no rank died
	Accumulate  time.Duration // the slowest rank's accumulation of its boxes
}

// convRank is one rank's share of LowCommConvolve: its boxes that are not
// all zero, and a pipeline and an output per box, all run on one Runner.
type convRank struct {
	src    []int
	locals []*conv.Local
	outs   [][]*sample.Compressed
	run    *conv.Runner
}

// policyTrees returns the trees every rank places its boxes from on plans:
// sample.DefaultPolicy at far rate farRate, translates of one memoized
// geometry.
func policyTrees(plans *conv.PlanSet, farRate int) func(int, grid.Box) (*octree.Tree, error) {
	return func(_ int, b grid.Box) (*octree.Tree, error) {
		return plans.PolicyTree(sample.DefaultPolicy(b, farRate))
	}
}

// LowCommExchangeBytes predicts, exactly, the fabric bytes the single
// sparse exchange of LowCommConvolve(d, subSize, farRate) moves on P healthy
// workers for an input with no all-zero sub-domain: Σ over workers w and
// peers q≠w of 8·len(msg[w→q]). The routes depend only on the
// decomposition and the sampling octrees — never on field values — so the
// prediction reads the group lengths off the Exchange's plan without
// running any transforms. It counts what each peer's boxes read, each
// sample once per peer, and a box index per group; the Eq. 6 model figure
// TOursBytes counts each worker's whole output once.
func LowCommExchangeBytes(d grid.Dim3, p, subSize, farRate int) (int64, error) {
	plans, err := conv.NewPlanSet(d, 1)
	if err != nil {
		return 0, err
	}
	x, err := NewExchange(d, subSize, p, 1, policyTrees(plans, farRate))
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for j := range x.Boxes {
		for q := range p {
			if q != j%p {
				total += int64(8 * x.groupLen(j, q))
			}
		}
	}
	return total, nil
}

// LowCommConvolve runs the proposed method of Fig. 1b on P simulated
// workers and returns conv.Decomposed.Run's field bit for bit, for any P.
// It runs the Exchange's layout: rank q convolves its boxes j ≡ q mod P
// that are not all zero locally, then a single all-to-all ships each peer
// only the samples the peer's boxes read, and each rank adds them into its
// own boxes in job order (Algorithm 2 line 6).
//
// On a fault-injecting transport, drops, delays, duplicates and corruption
// heal in the deadline/retry layer. A crashed or unresponsive worker aborts
// the generation: the cluster epoch is reset and every worker runs again,
// up to 2P+2 generations, after which the error wraps the last worker crash
// (errors.As reaches *CrashError).
func LowCommConvolve(c *Cluster, f *grid.Field, kernel green.Kernel, subSize, farRate int, cfg conv.Config) (*LowCommResult, error) {
	d := f.Dim
	// One plan set and one kernel table for the call: both are read-only
	// and shared by every worker's pipelines. The exchange plans its routes
	// on the trees the pipelines place, and a box whose input is all zero
	// gets no pipeline, only its tree.
	plans, err := conv.NewPlanSet(d, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pw := conv.KernelPointwise(d, kernel)
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return nil, err
	}
	locals := make([]*conv.Local, len(boxes))
	x, err := NewExchange(d, subSize, c.P, 1, func(j int, b grid.Box) (*octree.Tree, error) {
		if f.BoxAllZero(b) {
			return plans.PolicyTree(sample.DefaultPolicy(b, farRate))
		}
		local, err := plans.NewPolicyLocal(sample.DefaultPolicy(b, farRate), 1, pw, cfg)
		if err != nil {
			return nil, err
		}
		locals[j] = local
		return local.Tree(), nil
	})
	if err != nil {
		return nil, err
	}
	ranks := make([]*convRank, c.P)
	for q := range ranks {
		r := &convRank{run: plans.NewRunner()}
		for _, j := range x.Owned(q) {
			if locals[j] != nil {
				r.src = append(r.src, j)
				r.locals = append(r.locals, locals[j])
				r.outs = append(r.outs, []*sample.Compressed{sample.NewCompressed(locals[j].Tree())})
			}
		}
		ranks[q] = r
	}

	res := &LowCommResult{}
	bytesBefore, _, _, _ := c.Stats.Snapshot()
	maxGen := 2*c.P + 2
	for {
		res.Generations++
		out := grid.NewField(d)
		acc := make([]time.Duration, c.P)
		errs := c.RunAll(func(w *Worker) error {
			// Every box's local pipeline — no communication at all (Fig.
			// 1b: "the FFT-based convolution computation is local to the
			// workers till the last step").
			r := ranks[w.ID]
			for i, j := range r.src {
				sub, err := f.ExtractBox(x.Boxes[j])
				if err != nil {
					return err
				}
				if _, err := r.run.Run(r.locals[i], []*grid.Field{sub}, r.outs[i]); err != nil {
					return err
				}
			}
			recv, err := w.AllToAll(x.Encode(r.src, r.outs))
			if err != nil {
				return err
			}
			t0 := time.Now()
			in, err := x.Decode(w.ID, recv)
			if err != nil {
				return err
			}
			err = x.Accumulate(w.ID, in, func(int, int) (*grid.Field, grid.Point) { return out, grid.Point{} })
			acc[w.ID] = time.Since(t0)
			return err
		})
		var cause error // the last worker's own crash, else the first fault
		for _, e := range errs {
			var ce *CrashError
			var fe *FaultError
			switch {
			case e == nil:
			case errors.As(e, &ce):
				cause = e
			case errors.As(e, &fe):
				if cause == nil {
					cause = e
				}
			default:
				return nil, e
			}
		}
		if cause == nil {
			res.Field, res.Accumulate = out, slices.Max(acc)
			break
		}
		if res.Generations == maxGen {
			return nil, fmt.Errorf("cluster: low-comm convolution gave up after %d generations: %w", maxGen, cause)
		}
		c.ResetEpoch()
	}
	bytesAfter, _, _, _ := c.Stats.Snapshot()
	res.FabricBytes = bytesAfter - bytesBefore
	return res, nil
}
