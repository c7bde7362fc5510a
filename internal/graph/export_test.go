package graph

// KernelCounts reports, for tests, what one forward pass over g must add
// to an executor's dispatch counters, read off the compiled steps: the
// int8-path and FP32-path conv/dense kernels, the fused-epilogue subset,
// and the kernels consuming ahead-of-time panels.
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
