// Dataflow passes over the graph IR: checks of the two properties the
// execution engine takes on faith at runtime.
//
// CheckPlan re-proves the static memory planner's central claim — no
// arena slot ever holds two simultaneously-live tensors — from nothing
// but the graph and the plan's slot assignments. The liveness analysis
// here is written independently of graph.PlanBuffers (separate consumer
// counting, separate alias resolution), so a planner bug cannot hide
// behind its own bookkeeping: the checker catches it before the pooled
// executor writes through an aliased buffer.
//
// CheckQuantDomains walks datatype flow and rejects graphs where int8
// codes feed FP32-only ops. A quantized node holds its weights once: the
// codes where the executor runs it int8, else the dequantized FP32
// values in Weights. Which nodes run int8 is bind's decision, so the
// check asks bind's predicate (graph.Int8Kernel) rather than keeping a
// copy of it that could drift. A node holding codes but no int8 kernel
// and no Weights is unexecutable.
//
// Rule catalog (extends the structural catalog in verify.go):
//
//	plan-overlap   two tensors live at once share an arena slot
//	plan-slot-size a slot's element count differs from its tenant's
//	plan-kept      a kept output / input / alias node owns a slot
//	quant-boundary an edge crosses the int8/fp domain border (no cast
//	               op exists, so a partial quantization pass shipped)
//	quant-codes    int8 codes on a node outside the int8 domain (the
//	               executor would run int8 kernels the cost model and
//	               serving metrics never see)
//	quant-exec     int8 codes on an op with no int8 kernel and no FP32
//	               Weights: neither kernel path can execute the node
package verify

import (
	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// CheckAll runs the structural rule catalog plus the quant-domain
// dataflow pass — the full static checking surface for a graph without a
// buffer plan. internal/opt's gate runs it after every pass.
func CheckAll(g *graph.Graph) []Diagnostic {
	diags := Check(g)
	if g != nil && len(Errors(diags)) == 0 {
		diags = append(diags, CheckQuantDomains(g)...)
	}
	return diags
}

// CheckPlan proves p's slot assignments safe for g: it independently
// re-derives each buffer's live interval in executor (topological) order
// and reports any slot shared by two overlapping intervals, any slot
// sized differently than its tenant, and any slot assigned to storage
// that must outlive the run (graph input, kept outputs, alias views).
// The graph must already pass Check; call on malformed graphs returns a
// single diagnostic rather than cascading noise.
func CheckPlan(g *graph.Graph, p *graph.Plan) []Diagnostic {
	if g == nil || p == nil {
		return []Diagnostic{{Rule: "plan-overlap", Severity: Error, Msg: "nil graph or plan"}}
	}
	if err := Err(Check(g)); err != nil {
		return []Diagnostic{{Rule: "plan-overlap", Severity: Error, Graph: g.Name,
			Msg: "graph fails structural verification; fix that before checking the plan"}}
	}
	c := &checker{g: g, pos: make(map[*graph.Node]int, len(g.Nodes))}
	for i, n := range g.Nodes {
		c.pos[n] = i
	}

	// Independent alias resolution: a Flatten output is a view of its
	// input's storage, so its storage owner is the nearest non-view
	// ancestor. (Deliberately re-derived rather than read from the plan —
	// the plan's own root map is part of what is being checked.)
	owner := make(map[*graph.Node]*graph.Node, len(g.Nodes))
	rootOf := func(n *graph.Node) *graph.Node {
		if r, ok := owner[n]; ok {
			return r
		}
		return n
	}
	for _, n := range g.Nodes {
		if n.Kind == graph.OpFlatten {
			owner[n] = rootOf(n.Inputs[0])
		}
	}

	// Independent liveness: a buffer is defined at its owner's position
	// and freed when its last counted consumer executes. Alias nodes do
	// not count as consumers (their reads borrow the view, their own
	// consumers finish the buffer) — mirroring executor release order,
	// where allocation at position i strictly precedes the releases of
	// position i, so reuse requires def(next) > lastUse(prev).
	infinity := len(g.Nodes)
	lastUse := make(map[*graph.Node]int, len(g.Nodes))
	refs := make(map[*graph.Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind == graph.OpFlatten {
			continue
		}
		for _, in := range n.Inputs {
			r := rootOf(in)
			refs[r]++
			if c.pos[n] > lastUse[r] {
				lastUse[r] = c.pos[n]
			}
		}
	}
	kept := map[*graph.Node]bool{}
	for _, root := range g.Roots() {
		kept[rootOf(root)] = true
	}
	if g.Input != nil {
		kept[g.Input] = true
	}
	freeAt := func(n *graph.Node) int {
		if kept[n] || refs[n] == 0 {
			return infinity // never returned to the arena
		}
		return lastUse[n]
	}

	// Per-slot tenancy audit.
	tenants := map[int][]*graph.Node{}
	for _, n := range g.Nodes {
		slot, pooled := p.SlotOf(n)
		if !pooled {
			continue
		}
		switch {
		case n.Kind == graph.OpInput:
			c.add("plan-kept", Error, n, "the graph input is caller-owned storage but was assigned slot %d", slot)
		case n.Kind == graph.OpFlatten:
			c.add("plan-kept", Error, n, "alias node owns no storage but was assigned slot %d", slot)
		case kept[n]:
			c.add("plan-kept", Error, n, "kept output would be recycled into slot %d while the caller still holds it", slot)
		}
		if slot < 0 || slot >= len(p.Slots) {
			c.add("plan-slot-size", Error, n, "assigned slot %d outside the %d-slot arena", slot, len(p.Slots))
			continue
		}
		if want, got := n.OutShape.NumElems(), p.Slots[slot]; want != got {
			c.add("plan-slot-size", Error, n, "needs %d elements but slot %d holds %d", want, slot, got)
		}
		tenants[slot] = append(tenants[slot], n)
	}

	// The aliasing proof: within a slot, every pair of tenants must have
	// disjoint live intervals, with strict ordering (a buffer freed at
	// position i is reusable only by definitions after i, because the
	// executor allocates before it releases at each step).
	for slot, ns := range tenants {
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				a, b := ns[i], ns[j]
				if c.pos[a] > c.pos[b] {
					a, b = b, a
				}
				if c.pos[b] <= freeAt(a) {
					c.add("plan-overlap", Error, b,
						"slot %d already holds %s, live until position %d, when %s is defined at position %d",
						slot, a, freeAt(a), b, c.pos[b])
				}
			}
		}
	}
	return c.diags
}

// CheckQuantDomains walks datatype flow over the graph and enforces the
// int8 execution-domain discipline: domains may not mix across an edge
// (the IR has no cast op), int8 codes may not appear outside the int8
// domain, and int8 codes on a node bind has no int8 kernel for
// (graph.Int8Kernel) must come with FP32 Weights, or neither kernel path
// can execute the node.
func CheckQuantDomains(g *graph.Graph) []Diagnostic {
	if g == nil {
		return nil
	}
	c := &checker{g: g, pos: make(map[*graph.Node]int, len(g.Nodes))}
	int8Domain := func(n *graph.Node) bool { return n.DType == tensor.INT8 }
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		for _, in := range n.Inputs {
			if in == nil {
				continue
			}
			if int8Domain(in) != int8Domain(n) {
				c.add("quant-boundary", Error, n,
					"edge from %s crosses the %s/%s domain border without a requantize/dequantize boundary",
					in, in.DType, n.DType)
			}
		}
		if n.QWeights == nil {
			continue
		}
		if !int8Domain(n) {
			c.add("quant-codes", Error, n,
				"node carries int8 weight codes but its execution datatype is %s; a quantization pass retyped only part of the graph", n.DType)
		}
		if !graph.Int8Kernel(n) && n.Weights == nil {
			c.add("quant-exec", Error, n,
				"int8 codes on a node with no int8 kernel and no FP32 weights; neither execution path can run it")
		}
	}
	return c.diags
}
