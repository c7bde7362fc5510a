package graph

import (
	"fmt"
	"slices"

	"edgebench/internal/tensor"
)

// Program is a graph compiled for execution: every decision that does
// not depend on the input tensor — which kernel runs a node, where its
// operands and result live, whether its result comes from the arena, what
// can be dropped once it has run — is taken here, once, and the executor
// only walks the result. Values are numbered by their node's position in
// g.Nodes. A Program is read-only once built, so the executors
// NewExecutors makes share one. Every kernel reads its node's weights —
// FP32 Weights or int8 codes — in place, so a program holds no copy of
// them. An Executor caches the program of the last graph it ran, and
// compiling reads the graph without writing it; a graph edited afterwards
// needs a fresh Executor, which compiles the edited graph
// (core.Session.Optimize drops its own for that reason).
type Program struct {
	g    *Graph
	plan *Plan // nil for dynamic graphs, which have no arena

	steps []step // one per non-input node, in graph order

	// slot[v] is the arena slot the plan gave value v, or -1 when v is
	// allocated fresh: kept roots, kernels that allocate their own
	// output, and every value of a dynamic graph.
	slot []int

	input, output int // value numbers of g.Input and g.Output
	nargs         int // the widest step's input count: the size of a frame's args

	// What every run dispatches, totalled from the steps' kernels (Counts).
	int8Kernels, fp32Kernels, fusedKernels int64
}

// Counts reports the compute kernels (the conv/dense op families) one
// run of the program dispatches: those on the int8 path, those on the
// FP32 path, and the subset of either that applies a fused epilogue —
// bias/BN/activation in the kernel's output loop instead of separate
// node dispatches. Every run executes every step on its bound kernel, so
// n runs dispatch n times these.
func (p *Program) Counts() (int8Kernels, fp32Kernels, fusedKernels int64) {
	return p.int8Kernels, p.fp32Kernels, p.fusedKernels
}

// StepInfo is one step of a Program, as Steps reports it.
type StepInfo struct {
	Node *Node

	// What bind decided for the node: a conv/dense kernel (Compute), on
	// the int8 path (Int8), applying its epilogue itself (Fused), writing
	// into a buffer the executor hands it (WritesDst).
	Compute, Int8, Fused, WritesDst bool

	// In and Out are value numbers — positions in the graph's Nodes — of
	// the step's operands and result; Slot is Out's arena slot, or -1 when
	// it is allocated fresh; Free lists the values dead once the step has
	// run.
	In   []int
	Out  int
	Slot int
	Free []int
}

// Steps returns the schedule every run walks, one entry per non-input
// node in graph order: the indices an Executor's Observe reports are
// positions in it. The slices are copies, so the program stays
// read-only.
func (p *Program) Steps() []StepInfo {
	out := make([]StepInfo, len(p.steps))
	for i, s := range p.steps {
		out[i] = StepInfo{
			Node: s.n, Compute: s.k.compute, Int8: s.k.int8, Fused: s.k.fused, WritesDst: s.k.dst,
			In: slices.Clone(s.in), Out: s.out, Slot: p.slot[s.out], Free: slices.Clone(s.free),
		}
	}
	return out
}

// step is one node ready to run.
type step struct {
	n *Node
	k kernel

	in  []int // value numbers of n.Inputs
	out int   // value number of n

	// free lists the values dead once this step has run.
	free []int
}

// Compile builds g's program. It fails for graphs that cannot execute:
// structural-only parameters, a node no kernel accepts, or a static
// graph the planner rejects.
func Compile(g *Graph) (*Program, error) {
	p := &Program{g: g, slot: make([]int, len(g.Nodes))}
	index := make(map[*Node]int, len(g.Nodes))
	edges := 0
	for i, n := range g.Nodes {
		if !n.Materialized() {
			return nil, fmt.Errorf("graph %s: node %s has "+ErrNotMaterialized+"; build the model with materialized weights to execute it", g.Name, n)
		}
		for _, in := range n.Inputs {
			if _, ok := index[in]; !ok {
				return nil, fmt.Errorf("graph %s: node %s uses input %s before definition", g.Name, n, in)
			}
		}
		index[n] = i
		if n.Kind != OpInput {
			edges += len(n.Inputs)
		}
	}
	var ok bool
	if p.input, ok = index[g.Input]; !ok {
		return nil, fmt.Errorf("graph %s: input node not in graph", g.Name)
	}
	if p.output, ok = index[g.Output]; !ok {
		return nil, fmt.Errorf("graph %s: output node not in graph", g.Name)
	}
	st := analyze(g, index)
	dead := st.deadAfter(g, index)
	if g.Mode == Static {
		// Shape inference is the source of slot sizes, so the planner
		// only takes graphs that validate.
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graph %s: plan: %w", g.Name, err)
		}
		p.plan = assignSlots(g, st, dead)
	}
	ins := make([]int, 0, edges)
	for i, n := range g.Nodes {
		p.slot[i] = -1
		if n.Kind == OpInput {
			continue
		}
		k, err := bind(n)
		if err != nil {
			return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, n, err)
		}
		switch {
		case k.int8:
			p.int8Kernels++
		case k.compute:
			p.fp32Kernels++
		}
		if k.fused {
			p.fusedKernels++
		}
		s := step{n: n, k: k, out: i, free: dead[i]}
		first := len(ins)
		for _, in := range n.Inputs {
			ins = append(ins, index[in])
		}
		s.in = ins[first:]
		p.nargs = max(p.nargs, len(s.in))
		if p.plan != nil {
			if slot, ok := p.plan.SlotOf(n); ok {
				p.slot[i] = slot
			}
		}
		p.steps = append(p.steps, s)
	}
	return p, nil
}

// newFrame makes the run state for p's graph.
func newFrame(p *Program) *frame {
	return &frame{
		vals: make([]*tensor.Tensor, len(p.g.Nodes)),
		args: make([]*tensor.Tensor, p.nargs),
	}
}

// frame is an executor's mutable run state, reused across runs so a
// steady-state inference builds nothing: vals holds the value of every
// node (nil before it is computed and after it is dead), args is the
// buffer each step gathers its operand list into, and arena holds one
// buffer per plan slot, sized as the plan sizes it. hdrs[v] is value v's
// tensor over arena[p.slot[v]], made with the arena, so a value's buffer
// is the slot the plan gave it and verify.CheckPlan's proof covers what
// runs. The first run or Reserve builds both on a program with a plan.
type frame struct {
	vals  []*tensor.Tensor
	args  []*tensor.Tensor
	arena [][]float32
	hdrs  []tensor.Tensor
}

// build makes the frame's arena and value headers from p's plan.
func (f *frame) build(p *Program) {
	f.arena = make([][]float32, len(p.plan.Slots))
	for i, elems := range p.plan.Slots {
		f.arena[i] = make([]float32, elems)
	}
	f.hdrs = make([]tensor.Tensor, len(p.slot))
	for v, slot := range p.slot {
		if slot >= 0 {
			f.hdrs[v] = tensor.Tensor{Shape: p.g.Nodes[v].OutShape, Data: f.arena[slot]}
		}
	}
}

// alloc returns the output buffer for step s: its value's slot buffer
// when the plan assigned it one (contents arbitrary — every kernel
// writing into it must store all elements), a fresh tensor otherwise.
// Adding a tensor.New call to a kernel instead silently defeats the
// planner; edgelint's pool-alloc rule flags that.
func (f *frame) alloc(p *Program, s *step) *tensor.Tensor {
	if p.slot[s.out] >= 0 {
		return &f.hdrs[s.out]
	}
	return tensor.New(s.n.OutShape...) // edgelint:ignore pool-alloc — the step allocator's "fresh" case
}

// release drops the values in free. It is the one release rule: every
// run — static or dynamic — stops referencing a value the moment nothing
// will read it again, which is define-by-run's eager release. A slot
// buffer needs no handing back: the plan already lets the next value
// that owns the slot write it.
func (f *frame) release(free []int) {
	for _, v := range free {
		f.vals[v] = nil
	}
}
