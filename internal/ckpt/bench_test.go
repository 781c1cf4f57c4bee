package ckpt

import (
	"bytes"
	"testing"
)

// BenchmarkCheckpointRoundTrip measures one full durable-checkpoint cycle
// at realistic self-healing scale: 4 sub-domains × 6 Voigt components ×
// 8³ values, the per-worker state a respawn restores from. Custom metrics
// report the snapshot size and encode/decode throughput alongside wall
// time.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	snap := testSnapshot(0, 7, 4, 512) // 4 boxes × 6 comps × 8³
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		b.Fatal(err)
	}
	size := int64(buf.Len())
	b.SetBytes(2 * size) // one encode + one decode per iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteSnapshot(&buf, snap); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
	b.ReportMetric(float64(len(snap.Strain)), "boxes")
}
