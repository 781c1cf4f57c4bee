// Command genfuzzcorpus regenerates the checked-in seed corpora under
// internal/*/testdata/fuzz/. The corpus mirrors (and extends) the f.Add
// seeds so `go test` exercises them on every run and `go test -fuzz`
// starts from structurally interesting inputs — including genuine binary
// WriteTo/WriteTo32 streams that are impractical to hand-write.
//
// Run from the repo root: go run ./cmd/genfuzzcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/wire"
)

// entry renders one fuzz-corpus value line (go test fuzz v1 format).
func entry(v any) string {
	switch x := v.(type) {
	case int:
		return fmt.Sprintf("int(%d)", x)
	case []byte:
		return fmt.Sprintf("[]byte(%s)", strconv.Quote(string(x)))
	default:
		log.Fatalf("unsupported corpus value type %T", v)
		return ""
	}
}

func writeSeed(dir, name string, values ...any) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("go test fuzz v1\n")
	for _, v := range values {
		buf.WriteString(entry(v))
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

// fixHeaderCRC restamps a wire frame's header CRC after a field edit (the
// forged-length seed must pass header validation to reach the payload
// read path).
func fixHeaderCRC(frame []byte) {
	crc := crc32.Checksum(frame[:16], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(frame[16:], crc)
}

func metaBytes(meta []int32) []byte {
	raw := make([]byte, 4*len(meta))
	for i, m := range meta {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(m))
	}
	return raw
}

func main() {
	// FuzzFFTRoundTrip(n int, data []byte)
	fftDir := filepath.Join("internal", "fft", "testdata", "fuzz", "FuzzFFTRoundTrip")
	writeSeed(fftDir, "seed-pow2", 8, []byte{1, 2, 3, 4})
	writeSeed(fftDir, "seed-bluestein-prime", 7, []byte{0xff, 0x00, 0x7f})
	writeSeed(fftDir, "seed-large-prime", 127, []byte{3, 1, 4, 1, 5, 9, 2, 6})
	writeSeed(fftDir, "seed-composite", 48, []byte{0xaa, 0x55, 0xaa, 0x55})
	writeSeed(fftDir, "seed-length-one", 1, []byte{42})
	// The target transforms length (n mod 512) + 1: the radix-4 kernel's
	// trivial sizes and both parities of log₂ n.
	for _, n := range []int{2, 4, 16, 32, 128, 256} {
		writeSeed(fftDir, fmt.Sprintf("seed-radix4-n%d", n), n-1, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, byte(n)})
	}

	// FuzzOctreeMetaCodec(n int, totalSlots int, metaBytes []byte)
	octDir := filepath.Join("internal", "octree", "testdata", "fuzz", "FuzzOctreeMetaCodec")
	near := grid.BoxAt(grid.Point{0, 0, 0}, 8, 8, 8)
	tree, err := octree.Build(grid.Cube(16), func(b grid.Box) int {
		if b.Hi[0]-b.Lo[0] > 8 {
			return 0
		}
		if near.ContainsBox(b) {
			return 1
		}
		return 4
	})
	if err != nil {
		log.Fatal(err)
	}
	writeSeed(octDir, "seed-genuine", 16, tree.SlotCount(), metaBytes(tree.EncodeMeta()))
	writeSeed(octDir, "seed-single-cell", 8, 27, metaBytes([]int32{0, 0, 0, 1, 0}))
	writeSeed(octDir, "seed-negative-total", 4, -5, metaBytes([]int32{0, 0, 0, 1, 0}))
	writeSeed(octDir, "seed-huge-total", 1<<20, 1<<50, metaBytes([]int32{0, 0, 0, 1, 0}))
	corruptMeta := tree.EncodeMeta()
	corruptMeta[3] = 3 // non-power-of-two rate
	writeSeed(octDir, "seed-bad-rate", 16, tree.SlotCount(), metaBytes(corruptMeta))

	// FuzzValidateMatchesPairwise(n int, cells []byte): x, y, z, size, rate
	// as one int8 per field, five bytes a cell.
	valDir := filepath.Join("internal", "octree", "testdata", "fuzz", "FuzzValidateMatchesPairwise")
	cellBytes := func(cells []octree.Cell) []byte {
		var raw []byte
		for _, c := range cells {
			raw = append(raw, byte(c.Box.Lo[0]), byte(c.Box.Lo[1]), byte(c.Box.Lo[2]), byte(c.Box.Size()[0]), byte(c.Rate))
		}
		return raw
	}
	genuine := cellBytes(tree.Cells)
	writeSeed(valDir, "seed-genuine", 16, genuine)
	shifted := bytes.Clone(genuine)
	shifted[5]++ // second cell one step along x: a gap and an overlap of equal volume
	writeSeed(valDir, "seed-shifted", 16, shifted)
	writeSeed(valDir, "seed-duplicated", 16, append(bytes.Clone(genuine), genuine[:5]...))
	writeSeed(valDir, "seed-dropped", 16, genuine[5:])
	swapped := bytes.Clone(genuine)
	copy(swapped[0:5], genuine[5:10])
	copy(swapped[5:10], genuine[0:5])
	writeSeed(valDir, "seed-swapped", 16, swapped)
	writeSeed(valDir, "seed-empty-cell", 16, append(bytes.Clone(genuine), 20, 0xfd, 3, 0, 1))
	writeSeed(valDir, "seed-negative-size", 16, append(bytes.Clone(genuine), 4, 4, 4, 0xfe, 1))
	writeSeed(valDir, "seed-odd-grid", 3, cellBytes([]octree.Cell{
		{Box: grid.CubeAt(grid.Point{0, 0, 0}, 2), Rate: 2},
		{Box: grid.CubeAt(grid.Point{2, 0, 0}, 1), Rate: 1},
	}))
	writeSeed(valDir, "seed-no-cells", 0, []byte{})

	// FuzzCompressedIO(data []byte)
	smpDir := filepath.Join("internal", "sample", "testdata", "fuzz", "FuzzCompressedIO")
	utree, err := sample.Uniform{Rate: 2, CellSize: 8}.Tree(grid.Cube(16))
	if err != nil {
		log.Fatal(err)
	}
	c := sample.NewCompressed(utree)
	for i := range c.Samples {
		c.Samples[i] = float64(i)*0.25 - 3
	}
	var v64, v32 bytes.Buffer
	if _, err := c.WriteTo(&v64); err != nil {
		log.Fatal(err)
	}
	if _, err := c.WriteTo32(&v32); err != nil {
		log.Fatal(err)
	}
	writeSeed(smpDir, "seed-v64", v64.Bytes())
	writeSeed(smpDir, "seed-v32", v32.Bytes())
	writeSeed(smpDir, "seed-truncated-header", v64.Bytes()[:20])
	writeSeed(smpDir, "seed-truncated-payload", v64.Bytes()[:v64.Len()-3])
	lying := bytes.Clone(v64.Bytes())
	binary.LittleEndian.PutUint64(lying[24:], 1<<39) // forge a huge sample count
	writeSeed(smpDir, "seed-lying-count", lying)

	// FuzzExchangeDecode(from int, data []byte): a message from rank from,
	// float64 values, little-endian. The genuine one is what
	// cluster.LowCommConvolve's rank 0 sends rank 1 on a 16³ grid at k 8,
	// far rate 4, on two workers: a group per box of rank 0 that a box of
	// rank 1 reads, framed by the exchange's own encoder; then that message
	// cut by one value, and with a first box index rank 0 does not own.
	xchgDir := filepath.Join("internal", "cluster", "testdata", "fuzz", "FuzzExchangeDecode")
	floats := func(msg []float64) []byte {
		var raw []byte
		for _, v := range msg {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	plans, err := conv.NewPlanSet(grid.Cube(16), 1)
	if err != nil {
		log.Fatal(err)
	}
	x, err := cluster.NewExchange(grid.Cube(16), 8, 2, 1, func(_ int, b grid.Box) (*octree.Tree, error) {
		return plans.PolicyTree(sample.DefaultPolicy(b, 4))
	})
	if err != nil {
		log.Fatal(err)
	}
	owned := x.Owned(0)
	outs := make([][]*sample.Compressed, len(owned))
	for i, j := range owned {
		ptree, err := plans.PolicyTree(sample.DefaultPolicy(x.Boxes[j], 4))
		if err != nil {
			log.Fatal(err)
		}
		res := sample.NewCompressed(ptree)
		for v := range res.Samples {
			res.Samples[v] = float64(i+v) * 0.125
		}
		outs[i] = []*sample.Compressed{res}
	}
	msg := x.Encode(owned, outs)[1]
	writeSeed(xchgDir, "seed-exchange", 0, floats(msg))
	writeSeed(xchgDir, "seed-truncated", 0, floats(msg[:len(msg)-1]))
	notOwned := append([]float64{1}, msg[1:]...)
	writeSeed(xchgDir, "seed-not-owned", 0, floats(notOwned))

	// FuzzCheckpointCodec(data []byte)
	ckptDir := filepath.Join("internal", "ckpt", "testdata", "fuzz", "FuzzCheckpointCodec")
	snap := &ckpt.Snapshot{Worker: 2, Iter: 5, Strain: make([][][]float64, 3)}
	for b := range snap.Strain {
		snap.Strain[b] = make([][]float64, grid.NumVoigt)
		for v := range snap.Strain[b] {
			data := make([]float64, 8)
			for i := range data {
				data[i] = float64(b*100+v*10+i) * 0.125
			}
			snap.Strain[b][v] = data
		}
	}
	var ck bytes.Buffer
	if _, err := ckpt.WriteSnapshot(&ck, snap); err != nil {
		log.Fatal(err)
	}
	writeSeed(ckptDir, "seed-genuine", ck.Bytes())
	writeSeed(ckptDir, "seed-truncated-header", ck.Bytes()[:22])
	writeSeed(ckptDir, "seed-truncated-payload", ck.Bytes()[:ck.Len()-5])
	// Header layout: magic(4) version(4) worker(4) iter(4) boxes(4)
	// comps(4) perBox(8) crc(8), then the float64 payload.
	lyingBoxes := bytes.Clone(ck.Bytes())
	binary.LittleEndian.PutUint32(lyingBoxes[16:], 1<<19) // claim far more boxes than the payload holds
	writeSeed(ckptDir, "seed-lying-boxes", lyingBoxes)
	hugePerBox := bytes.Clone(ck.Bytes())
	binary.LittleEndian.PutUint64(hugePerBox[24:], 1<<26) // forge a near-cap per-box count
	writeSeed(ckptDir, "seed-huge-perbox", hugePerBox)
	badCRC := bytes.Clone(ck.Bytes())
	binary.LittleEndian.PutUint64(badCRC[32:], 0xdeadbeefdeadbeef)
	writeSeed(ckptDir, "seed-bad-crc", badCRC)

	// FuzzWireFrameCodec(data []byte). Payloads are built by hand against
	// the documented little-endian message layouts (the encoders are
	// internal to the wire package); a drifting layout makes these seeds
	// less interesting, not wrong, since the fuzzer only needs plausible
	// structure to start from.
	wireDir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireFrameCodec")
	le := binary.LittleEndian
	str := func(s string) []byte {
		b := make([]byte, 4, 4+len(s))
		le.PutUint32(b, uint32(len(s)))
		return append(b, s...)
	}
	var hello []byte
	hello = le.AppendUint32(hello, 1) // protocol version
	hello = append(hello, str("0123456789abcdef0123456789abcdef")...)
	writeSeed(wireDir, "seed-hello", wire.EncodeFrame(wire.FrameHello, hello))

	var submit []byte
	submit = le.AppendUint64(submit, 7)    // job id
	submit = le.AppendUint32(submit, 1500) // deadline ms
	submit = append(submit, str("tenant")...)
	for _, c := range []int64{1, 2, 3} { // box low corner
		submit = le.AppendUint64(submit, uint64(c))
	}
	submit = le.AppendUint32(submit, 1) // k
	submit = le.AppendUint32(submit, 1) // sample count (k^3)
	submit = le.AppendUint64(submit, 0x3ff0000000000000)
	writeSeed(wireDir, "seed-submit", wire.EncodeFrame(wire.FrameSubmit, submit))

	var chunk []byte
	chunk = le.AppendUint64(chunk, 7)          // job id
	chunk = le.AppendUint64(chunk, 0)          // offset
	chunk = le.AppendUint64(chunk, 11)         // total
	chunk = le.AppendUint32(chunk, 0xdeadbeef) // payload CRC (wrong on purpose)
	chunk = append(chunk, "hello world"...)
	writeSeed(wireDir, "seed-chunk", wire.EncodeFrame(wire.FrameChunk, chunk))

	var status []byte
	status = le.AppendUint64(status, 7) // job id
	status = append(status, 2, 0)       // code (overloaded-queue)
	status = le.AppendUint32(status, 250)
	status = append(status, str("queue full")...)
	writeSeed(wireDir, "seed-status", wire.EncodeFrame(wire.FrameStatus, status))

	writeSeed(wireDir, "seed-ping", wire.EncodeFrame(wire.FramePing, nil))
	two := wire.EncodeFrame(wire.FramePong, nil)
	two = append(two, wire.EncodeFrame(wire.FramePing, nil)...)
	writeSeed(wireDir, "seed-back-to-back", two)

	ack := wire.EncodeFrame(wire.FrameAck, le.AppendUint64(le.AppendUint64(nil, 7), 4096))
	writeSeed(wireDir, "seed-truncated", ack[:len(ack)-3])
	hugeLen := wire.EncodeFrame(wire.FramePing, nil)
	le.PutUint32(hugeLen[8:], wire.MaxFramePayload) // in-bounds length, no bytes behind it
	fixHeaderCRC(hugeLen)
	writeSeed(wireDir, "seed-forged-length", hugeLen)
	badPayload := wire.EncodeFrame(wire.FrameAck, le.AppendUint64(le.AppendUint64(nil, 7), 4096))
	badPayload[wire.HeaderSize] ^= 1
	writeSeed(wireDir, "seed-corrupt-payload", badPayload)

	fmt.Println("seed corpora written under internal/*/testdata/fuzz/")
}
