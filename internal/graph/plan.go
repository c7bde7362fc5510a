package graph

import "fmt"

// Plan is a static-mode buffer plan: a liveness-driven assignment of
// every pooled intermediate to a reusable arena slot, computed once from
// the verifier's shape inference. The executor allocates one buffer per
// slot and writes each planned value into its slot's buffer on every
// Run, so the plan is where a value lives. Two nodes share a slot only
// when their live ranges are disjoint in the executor's topological
// order, so a planned run touches a bounded arena instead of allocating
// each intermediate.
type Plan struct {
	// Slots holds the element count of each arena slot.
	Slots []int
	// PeakBytes is the peak simultaneously-live activation footprint
	// (float32 bytes) under the plan, including the input and all kept
	// outputs.
	PeakBytes int64

	slot map[*Node]int // pooled node -> slot index
}

// isAliasOp reports whether a node's output is a view sharing its input's
// storage (no buffer of its own; its reads keep the input buffer alive).
func isAliasOp(n *Node) bool { return n.Kind == OpFlatten }

// storage is the buffer-level view of a graph that the planner and the
// executor's compile step both read. Values are numbered by their node's
// position in g.Nodes.
type storage struct {
	// owner maps a value to the value whose buffer holds it: itself,
	// or for a view (Flatten) chain the non-view ancestor.
	owner []int
	// kept marks owners that outlive the run: the caller's input, the
	// output and the extra roots.
	kept []bool
}

// indexNodes numbers g's nodes by position.
func indexNodes(g *Graph) map[*Node]int {
	index := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		index[n] = i
	}
	return index
}

// analyze resolves storage owners through alias chains (nodes appear
// after their inputs, so the input's owner is already known) and marks
// the kept ones.
func analyze(g *Graph, index map[*Node]int) storage {
	st := storage{owner: make([]int, len(g.Nodes)), kept: make([]bool, len(g.Nodes))}
	for i, n := range g.Nodes {
		st.owner[i] = i
		if isAliasOp(n) {
			st.owner[i] = st.owner[index[n.Inputs[0]]]
		}
	}
	for _, root := range g.Roots() {
		st.kept[st.owner[index[root]]] = true
	}
	if g.Input != nil {
		st.kept[index[g.Input]] = true
	}
	return st
}

// deadAfter returns, per node position, the values finished once that
// node has run: an owner dies at the last node reading it, directly or
// through a view, and its views die with it. Alias nodes don't finish a
// buffer by reading it — their consumers do. Kept owners and owners
// nothing reads never die.
func (st storage) deadAfter(g *Graph, index map[*Node]int) [][]int {
	last := make([]int, len(g.Nodes))
	for i := range last {
		last[i] = -1
	}
	for i, n := range g.Nodes {
		if isAliasOp(n) {
			continue
		}
		for _, in := range n.Inputs {
			o := st.owner[index[in]]
			last[o] = i
		}
	}
	dead := make([][]int, len(g.Nodes))
	for v := range g.Nodes {
		if o := st.owner[v]; last[o] >= 0 && !st.kept[o] {
			dead[last[o]] = append(dead[last[o]], v)
		}
	}
	return dead
}

// PlanBuffers computes the buffer plan for a static graph. The graph must
// validate (shape inference is the source of slot sizes). Dynamic graphs
// are rejected: their define-by-run semantics release buffers eagerly
// instead of reusing a persistent arena, the paper's static/dynamic
// memory distinction.
func PlanBuffers(g *Graph) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("plan: nil graph")
	}
	if g.Mode != Static {
		return nil, fmt.Errorf("plan: graph %s is dynamic; buffer planning needs a static graph", g.Name)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	index := indexNodes(g)
	st := analyze(g, index)
	return assignSlots(g, st, st.deadAfter(g, index)), nil
}

// assignSlots is the planner proper, for a validated static graph whose
// storage analysis the caller already holds (PlanBuffers, or the
// executor's compile step, which needs the same analysis for its own
// release lists): dead is st.deadAfter. The slots it assigns are the
// buffers the executor writes: a slot is exactly one value's size, so a
// value's buffer holds its elements and no more.
func assignSlots(g *Graph, st storage, dead [][]int) *Plan {
	p := &Plan{slot: make(map[*Node]int)}

	// Liveness walk in executor order: give each node whose kernel writes
	// into a buffer the executor hands it — unless its storage is kept
	// past the run — the most recently freed slot of its exact element
	// count, or a new slot, then free the slots of the values that die
	// here. Assignment happens before release on purpose: a node must
	// never be handed one of its own inputs' buffers. A value nothing
	// reads never dies, so its slot stays reserved for the whole run.
	free := make(map[int][]int)
	var cur int64
	if g.Input != nil {
		cur = int64(g.Input.OutShape.NumElems()) * 4
	}
	p.PeakBytes = cur
	for i, n := range g.Nodes {
		if n.Kind == OpInput || isAliasOp(n) {
			continue
		}
		elems := n.OutShape.NumElems()
		if writesDst(n.Kind) && !st.kept[st.owner[i]] {
			if ids := free[elems]; len(ids) > 0 {
				p.slot[n] = ids[len(ids)-1]
				free[elems] = ids[:len(ids)-1]
			} else {
				p.slot[n] = len(p.Slots)
				p.Slots = append(p.Slots, elems)
			}
		}
		cur += int64(elems) * 4
		p.PeakBytes = max(p.PeakBytes, cur)
		for _, v := range dead[i] {
			if st.owner[v] != v {
				continue // views hold no storage of their own
			}
			elems := g.Nodes[v].OutShape.NumElems()
			cur -= int64(elems) * 4
			if s, ok := p.slot[g.Nodes[v]]; ok {
				free[elems] = append(free[elems], s)
			}
		}
	}
	return p
}

// SlotOf returns the arena slot the plan assigned to n; ok is false when
// n owns no slot (unpooled op, alias, kept output). The verify package's
// plan dataflow pass reads assignments through this accessor so it can
// re-derive liveness independently and prove no slot ever holds two
// simultaneously-live tensors.
func (p *Plan) SlotOf(n *Node) (slot int, ok bool) {
	slot, ok = p.slot[n]
	return slot, ok
}

// Reassign overrides n's slot assignment. Production code never calls
// this — PlanBuffers is the sole authority.
//
// edgelint:seam the verify package's tests and fuzzing seed a deliberate
// overlap (two live nodes sharing a slot) through it, which
// verify.CheckPlan must catch, proving the checker would catch a real
// planner bug.
func (p *Plan) Reassign(n *Node, slot int) {
	p.slot[n] = slot
}
