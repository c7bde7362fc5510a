package tensor

import (
	"runtime"
	"testing"

	"edgebench/internal/stats"
)

func TestUpsampleNearest2D(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4}, 1, 2, 2)
	out := into(func(d *Tensor) { UpsampleNearest2DInto(d, in, 2) }, 1, 4, 4)
	want := []float32{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	// Factor 1 copies.
	same := into(func(d *Tensor) { UpsampleNearest2DInto(d, in, 1) }, 1, 2, 2)
	same.Data[0] = 9
	if in.Data[0] != 1 || same.Data[3] != 4 {
		t.Fatal("factor-1 upsample should copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor 0 should panic")
		}
	}()
	UpsampleNearest2DInto(New(1, 2, 2), in, 0)
}

func TestPool3DSpecOutDims(t *testing.T) {
	s := Pool3DSpec{KernelD: 1, Kernel: 2, PadSpatial: 1}
	d, h, w := s.OutDims(12, 7, 7)
	if d != 12 || h != 4 || w != 4 {
		t.Fatalf("dims = %d,%d,%d", d, h, w)
	}
	// Default strides follow kernels.
	s2 := Pool3DSpec{KernelD: 2, Kernel: 2}
	d, h, w = s2.OutDims(8, 8, 8)
	if d != 4 || h != 4 || w != 4 {
		t.Fatalf("default-stride dims = %d,%d,%d", d, h, w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero kernel should panic")
		}
	}()
	(Pool3DSpec{}).OutDims(4, 4, 4)
}

func TestMaxPool3DSpecPadding(t *testing.T) {
	in := New(1, 2, 3, 3).Fill(-1)
	in.Data[0] = 5 // (d=0, y=0, x=0)
	out := MaxPool3DSpec(in, Pool3DSpec{KernelD: 2, Kernel: 2, StrideD: 2, Stride: 2, PadSpatial: 1})
	if !out.Shape.Equal(Shape{1, 1, 2, 2}) {
		t.Fatalf("shape %v", out.Shape)
	}
	if out.At(0, 0, 0, 0) != 5 {
		t.Fatalf("padded max = %v, want 5", out.At(0, 0, 0, 0))
	}
	// Padded positions must not contribute zeros against negatives.
	if out.At(0, 0, 1, 1) != -1 {
		t.Fatalf("all-negative window = %v, want -1", out.At(0, 0, 1, 1))
	}
}

// TestConv2DParallelWorkerPath: the convolution the executor runs
// shards its band pass across the worker pool above the MAC
// threshold; the sharded result must be bit-identical to the same
// kernel confined to one goroutine, and equal the blocked reference.
func TestConv2DParallelWorkerPath(t *testing.T) {
	r := stats.NewRNG(31)
	in := New(16, 40, 40).Randomize(r, 1)
	w := New(16, 16, 3, 3).Randomize(r, 1)
	bias := make([]float32, 16)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	if w.Shape.NumElems()*40*40 < ParallelThresholdMACs() {
		t.Fatal("test layer too small to shard")
	}
	// The host may have one CPU; raise GOMAXPROCS so the sharded path
	// actually runs multiple goroutines.
	old := runtime.GOMAXPROCS(1)
	conv := func(d *Tensor) { convPacked(d, in, w, bias, spec, Epilogue{}) }
	serial := into(conv, 16, 40, 40)
	runtime.GOMAXPROCS(4)
	sharded := into(conv, 16, 40, 40)
	runtime.GOMAXPROCS(old)
	oracle := refConvBlocked(in, w, bias, spec, Epilogue{})
	for i := range serial.Data {
		if sharded.Data[i] != serial.Data[i] {
			t.Fatal("worker-sharded conv diverges from single-goroutine run")
		}
		if !bitsEqual(serial.Data[i:i+1], oracle.Data[i:i+1]) {
			t.Fatalf("GEMM conv differs from the blocked reference at %d: %v vs %v", i, serial.Data[i], oracle.Data[i])
		}
	}
}
