// Package cluster simulates the distributed-memory execution the paper
// reasons about: P workers exchanging data through counted channels. It
// provides the α–β communication-time model (Eq. 2), the traditional
// distributed FFT convolution with its all-to-all transposes (Eq. 1, Fig.
// 1a), and the proposed low-communication convolution with a single sparse
// sample exchange (Eq. 6, Fig. 1b). Both pipelines compute real results —
// communication is genuine data movement between goroutine workers, with
// every byte and round accounted.
package cluster

import (
	"fmt"
	"math"
)

// Params is the α–β model of the paper's Eq. 2: the time to send an
// m-byte message is t = α + β·m.
type Params struct {
	Alpha float64 // link setup latency per message, seconds
	Beta  float64 // inverse bandwidth, seconds per byte
}

// DefaultParams models a 100 Gb/s interconnect with 1 µs latency — the
// class of fabric in the paper's Bridges nodes.
func DefaultParams() Params {
	return Params{Alpha: 1e-6, Beta: 1 / (12.5e9)}
}

// MessageTime evaluates Eq. 2 for one message of m bytes.
func (p Params) MessageTime(m int) float64 {
	return p.Alpha + p.Beta*float64(m)
}

// TCommFFT evaluates the paper's Eq. 1: per-node communication time of a
// traditional 3D FFT on an N³ grid over P workers with two all-to-all
// stages, T = 2·N³·8 / (P·β_link), expressed through β = 1/β_link.
func (p Params) TCommFFT(n, workers int) float64 {
	bytes := 8.0 * float64(n) * float64(n) * float64(n)
	return 2 * bytes * p.Beta / float64(workers)
}

// TCommFFTBytes is Eq. 1's byte numerator, exactly and in integers:
// 2·8·N³, two transpose rounds at 8 bytes per grid point. The
// implementation transposes the COMPLEX grid (16 bytes per point), so one
// real round moves exactly TCommFFTBytes·(P−1)/P on the fabric — the 16
// bytes of one round equal the model's 2×8 across both, and (P−1)/P is
// the self-block a real fabric never carries. Hence the exact identity
// pinned by TestMeasuredCommMatchesModel: two measured rounds satisfy
// measured·P == 2·TCommFFTBytes·(P−1). The measured side is what
// cluster.Stats.Collectives records during DistFFTConvolve.
func TCommFFTBytes(n int) int64 {
	return 2 * 8 * int64(n) * int64(n) * int64(n)
}

// FFTTransposeFabricBytes is the exact fabric traffic of ONE slab
// transpose among P workers on an N³ complex grid: each worker ships its
// per×per×n block to each of the P−1 peers (the self-block stays local),
// 16·N³·(P−1)/P bytes in total — TCommFFTBytes·(P−1)/P per round. n must
// be divisible by workers (the DistFFTConvolve precondition).
func FFTTransposeFabricBytes(n, workers int) int64 {
	if workers <= 1 {
		return 0
	}
	n3OverP := int64(n) * int64(n) * int64(n/workers)
	return 16 * n3OverP * int64(workers-1)
}

// TOursBytes is Eq. 6's per-node byte count, exactly and in integers:
// 8·(k³ + SparseSamples(n, k, r)) — the dense k³ sub-domain plus its
// sparse far-field samples at 8 bytes each. Multiplying by β/P gives TOurs.
func TOursBytes(n, k, r int) int64 {
	return 8 * (int64(k)*int64(k)*int64(k) + int64(SparseSamples(n, k, r)))
}

// SparseSamples evaluates the paper's Eq. 6 sample count: for a k³
// sub-domain in an N³ grid with average downsampling rate r, the number of
// sparse points is (N³ − k³)/r³.
func SparseSamples(n, k, r int) int {
	nn := float64(n) * float64(n) * float64(n)
	kk := float64(k) * float64(k) * float64(k)
	return int(math.Round((nn - kk) / float64(r*r*r)))
}

// TOurs evaluates the paper's Eq. 6: per-node communication time of the
// proposed method, T = (k³ + sparse samples)·8 / (P·β_link).
func (p Params) TOurs(n, k, r, workers int) float64 {
	points := float64(k)*float64(k)*float64(k) + float64(SparseSamples(n, k, r))
	return 8 * points * p.Beta / float64(workers)
}

// CommModelRow is one row of the Eq. 1 vs Eq. 6 comparison.
type CommModelRow struct {
	N, K, R, P     int
	TraditionalSec float64
	OursSec        float64
	Ratio          float64
}

// CommModel sweeps the analytic model, reproducing the paper's claim
// T_ours < T_Comm,FFT.
func (p Params) CommModel(ns []int, k, r, workers int) ([]CommModelRow, error) {
	if k <= 0 || r <= 0 || workers <= 0 {
		return nil, fmt.Errorf("cluster: k, r, workers must be positive")
	}
	rows := make([]CommModelRow, 0, len(ns))
	for _, n := range ns {
		if n < k {
			return nil, fmt.Errorf("cluster: grid %d smaller than sub-domain %d", n, k)
		}
		t := p.TCommFFT(n, workers)
		o := p.TOurs(n, k, r, workers)
		rows = append(rows, CommModelRow{
			N: n, K: k, R: r, P: workers,
			TraditionalSec: t, OursSec: o, Ratio: t / o,
		})
	}
	return rows, nil
}
