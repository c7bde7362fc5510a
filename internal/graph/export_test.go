package graph

import "edgebench/internal/tensor"

// KernelCounts reports, for tests, what one forward pass over g must add
// to an executor's dispatch counters, read off the compiled steps: the
// int8-path and FP32-path conv/dense kernels, the fused-epilogue subset,
// and the kernels reading panels packed at compile.
func KernelCounts(g *Graph) (int8Kernels, fp32Kernels, fusedKernels, prepacked int64, err error) {
	p, err := compile(g)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, s := range p.steps {
		switch {
		case s.k.int8:
			int8Kernels++
		case s.k.compute:
			fp32Kernels++
		}
		if s.k.fused {
			fusedKernels++
		}
		if s.k.packed {
			prepacked++
		}
	}
	return int8Kernels, fp32Kernels, fusedKernels, prepacked, nil
}

// ProgramOf returns the program e runs, so a test can tell a reused one
// from a recompiled one.
func ProgramOf(e *Executor) any { return e.prog }

// ConvPackedPerCall evaluates n, an ungrouped FP32 convolution, on in
// with the kernel that packs its weights on every call — the reference
// for the program's kernel, which reads panels packed at compile.
func ConvPackedPerCall(n *Node, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(n.OutShape...)
	tensor.Conv2DGEMMFusedInto(out, in, n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n), 0)
	return out
}
