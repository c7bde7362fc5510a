// Package verify is the static checker of the graph IR: it runs full
// shape and dtype inference over a Graph and checks every invariant the
// engine assumes, returning structured diagnostics instead of panicking.
//
// The paper's central observable is how framework graph transformations
// (freezing, BN-folding, fusion, INT8/FP16 quantization — §III,
// Table II) change per-inference cost, so the correctness of the
// internal/graph passes is the experiment's validity. Benchmarking
// studies stress that cross-framework comparisons are only trustworthy
// when every converted/optimized model is verified equivalent before
// measurement; this package enforces the structural half of that
// statically, at graph-build time: exchange.Import rejects malformed
// serialized graphs, core.Session verifies once at session open, and
// internal/opt re-verifies after every optimization pass.
//
// The rule catalog (IDs appear in diagnostics and DESIGN.md):
//
//	topo-order     every input precedes its consumer in Nodes
//	acyclic        no cycles through Inputs edges
//	single-def     each node (and node ID) appears exactly once
//	dangling-input every input is a member of Nodes
//	arity          op-specific input counts
//	shape          recorded OutShape matches full shape inference
//	dtype-uniform  no mixed-dtype edge (the IR has no cast op, so a
//	               INT8/FP32 boundary inside a graph is illegal)
//	io             Input/Output/Extra well-formed; exactly one input node
//	frozen         a frozen graph must be Static-mode
//	fusion         fused activations/BN only on legal op kinds
//	params         materialized parameters consistent with their
//	               structural description
//	dead-node      (warning) node unreachable from any output
package verify

import (
	"fmt"
	"strings"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warning flags suspicious but executable structure (dead nodes).
	Warning Severity = iota
	// Error flags structure the engine cannot execute soundly.
	Error
)

// String names the severity level.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one rule violation, locating the offending node when the
// violation is node-scoped.
type Diagnostic struct {
	Rule     string // stable rule ID from the package catalog
	Severity Severity
	Graph    string // graph name
	Node     string // offending node (String form), empty for graph-level rules
	Msg      string
}

// String renders the diagnostic as "graph: node N: severity: rule: msg".
func (d Diagnostic) String() string {
	loc := d.Graph
	if d.Node != "" {
		loc += ": node " + d.Node
	}
	return fmt.Sprintf("%s: %s: %s: %s", loc, d.Severity, d.Rule, d.Msg)
}

// Errors filters a diagnostic list down to Error severity.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Err converts a diagnostic list into a single error, nil when no
// Error-severity diagnostics are present (warnings alone do not fail).
func Err(diags []Diagnostic) error {
	errs := Errors(diags)
	if len(errs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d invariant violation(s): ", len(errs))
	for i, d := range errs {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(errs)-i)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(d.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Check runs the full rule catalog over g and returns every violation
// found. It never panics, even on arbitrarily malformed graphs (nil
// nodes, cycles, foreign inputs) — the property the exchange fuzzer
// asserts.
func Check(g *graph.Graph) []Diagnostic {
	if g == nil {
		return []Diagnostic{{Rule: "io", Severity: Error, Msg: "nil graph"}}
	}
	c := &checker{g: g, pos: make(map[*graph.Node]int, len(g.Nodes))}
	c.indexNodes()
	c.checkIO()
	c.checkEdges()
	c.checkCycles()
	c.checkShapes()
	c.checkDTypes()
	c.checkFrozen()
	c.checkFusion()
	c.checkParams()
	c.checkLiveness()
	return c.diags
}

type checker struct {
	g     *graph.Graph
	pos   map[*graph.Node]int // first occurrence in Nodes
	diags []Diagnostic
}

func (c *checker) add(rule string, sev Severity, n *graph.Node, format string, args ...any) {
	d := Diagnostic{Rule: rule, Severity: sev, Graph: c.g.Name, Msg: fmt.Sprintf(format, args...)}
	if n != nil {
		d.Node = n.String()
	}
	c.diags = append(c.diags, d)
}

// indexNodes records each node's position and flags duplicates (a node
// or node ID defined twice breaks the single-producer discipline).
func (c *checker) indexNodes() {
	ids := make(map[int]*graph.Node, len(c.g.Nodes))
	for i, n := range c.g.Nodes {
		if n == nil {
			c.add("single-def", Error, nil, "Nodes[%d] is nil", i)
			continue
		}
		if prev, dup := c.pos[n]; dup {
			c.add("single-def", Error, n, "node defined at positions %d and %d", prev, i)
			continue
		}
		c.pos[n] = i
		if prev, dup := ids[n.ID]; dup {
			c.add("single-def", Error, n, "node ID %d already used by %s", n.ID, prev)
		}
		ids[n.ID] = n
	}
}

// checkIO verifies the graph's entry and exit points: a single input
// node that is the registered Input, and member Output/Extra roots.
func (c *checker) checkIO() {
	inputs := 0
	for _, n := range c.g.Nodes {
		if n != nil && n.Kind == graph.OpInput {
			inputs++
		}
	}
	switch {
	case c.g.Input == nil:
		c.add("io", Error, nil, "graph has no input node")
	case c.g.Input.Kind != graph.OpInput:
		c.add("io", Error, c.g.Input, "Input is a %s node, want %s", c.g.Input.Kind, graph.OpInput)
	default:
		if _, ok := c.pos[c.g.Input]; !ok {
			c.add("io", Error, c.g.Input, "Input node is not a member of Nodes")
		}
	}
	if inputs != 1 {
		c.add("io", Error, nil, "graph has %d input nodes, want exactly 1", inputs)
	}
	if c.g.Output == nil {
		c.add("io", Error, nil, "graph has no output node")
	} else if _, ok := c.pos[c.g.Output]; !ok {
		c.add("io", Error, c.g.Output, "Output node is not a member of Nodes")
	}
	for _, x := range c.g.Extra {
		if x == nil {
			c.add("io", Error, nil, "Extra contains a nil output")
			continue
		}
		if _, ok := c.pos[x]; !ok {
			c.add("io", Error, x, "extra output is not a member of Nodes")
		}
	}
}

// checkEdges verifies input membership, topological order, and arity.
func (c *checker) checkEdges() {
	for i, n := range c.g.Nodes {
		if n == nil {
			continue
		}
		for j, in := range n.Inputs {
			if in == nil {
				c.add("dangling-input", Error, n, "input %d is nil", j)
				continue
			}
			p, ok := c.pos[in]
			if !ok {
				c.add("dangling-input", Error, n, "input %d (%s) is not a member of Nodes", j, in)
				continue
			}
			if p >= i {
				c.add("topo-order", Error, n, "uses input %s defined at position %d >= %d", in, p, i)
			}
		}
		if n.Kind == graph.OpInput && len(n.Inputs) != 0 {
			c.add("arity", Error, n, "input node has %d inputs, want 0", len(n.Inputs))
		}
	}
}

// checkCycles walks Inputs edges from every member node with a
// three-color DFS; a back edge is a cycle (topological order implies
// acyclicity, but a corrupted node list can hide a cycle among nodes at
// equal footing, so the walk is explicit).
func (c *checker) checkCycles() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*graph.Node]int, len(c.g.Nodes))
	var walk func(n *graph.Node) bool
	walk = func(n *graph.Node) bool {
		switch color[n] {
		case grey:
			c.add("acyclic", Error, n, "node participates in a cycle")
			return false
		case black:
			return true
		}
		color[n] = grey
		for _, in := range n.Inputs {
			if in == nil {
				continue
			}
			if !walk(in) {
				break // report one cycle per connected component
			}
		}
		color[n] = black
		return true
	}
	for _, n := range c.g.Nodes {
		if n != nil {
			walk(n)
		}
	}
}

// checkShapes re-runs shape inference over every node and compares the
// result with the recorded OutShape. Nodes with dangling or nil inputs
// are skipped — checkEdges already reported them, and inference over a
// foreign subgraph would cascade noise.
func (c *checker) checkShapes() {
	for _, n := range c.g.Nodes {
		if n == nil || !c.edgesResolved(n) {
			continue
		}
		if n.Kind == graph.OpInput {
			if len(n.OutShape) == 0 {
				c.add("shape", Error, n, "input node has no shape")
			}
			for _, d := range n.OutShape {
				if d < 1 {
					c.add("shape", Error, n, "input shape %v has a non-positive dimension", n.OutShape)
					break
				}
			}
			continue
		}
		inferred, err := graph.InferShapeE(n)
		if err != nil {
			c.add("shape", Error, n, "%v", err)
			continue
		}
		if !inferred.Equal(n.OutShape) {
			c.add("shape", Error, n, "recorded shape %v, inferred %v", n.OutShape, inferred)
		}
	}
}

// edgesResolved reports whether every input of n is a member node.
func (c *checker) edgesResolved(n *graph.Node) bool {
	for _, in := range n.Inputs {
		if in == nil {
			return false
		}
		if _, ok := c.pos[in]; !ok {
			return false
		}
	}
	return true
}

// checkDTypes enforces quantization consistency: every edge must connect
// nodes of the same execution datatype. The IR has no cast op — the
// quantization passes retype whole graphs — so a mixed INT8/FP32 edge
// means a pass (or an imported file) retyped only part of a graph.
func (c *checker) checkDTypes() {
	for _, n := range c.g.Nodes {
		if n == nil {
			continue
		}
		for _, in := range n.Inputs {
			if in == nil {
				continue
			}
			if in.DType != n.DType {
				c.add("dtype-uniform", Error, n,
					"mixed-dtype edge without a cast: input %s is %s, node is %s", in, in.DType, n.DType)
			}
		}
	}
}

// checkFrozen enforces freeze discipline: freezing is the static-graph
// deployment step (§III-A), so a frozen define-by-run graph is a
// contradiction.
func (c *checker) checkFrozen() {
	if c.g.Frozen && c.g.Mode == graph.Dynamic {
		c.add("frozen", Error, nil, "frozen graph is Dynamic-mode; freezing is a static-graph discipline")
	}
}

// checkFusion verifies fusion legality: a fused activation must be an
// activation op riding on a compute op, and the FusedBN flag only makes
// sense on the op kinds FoldBN folds into.
func (c *checker) checkFusion() {
	for _, n := range c.g.Nodes {
		if n == nil {
			continue
		}
		if n.Activation != 0 {
			if !n.Activation.IsActivation() {
				c.add("fusion", Error, n, "fused op %s is not an activation", n.Activation)
			}
			if !n.Kind.AbsorbsActivation() {
				c.add("fusion", Error, n, "fused activation on non-compute op %s", n.Kind)
			}
		}
		if n.FusedBN && !n.Kind.IsLinear() {
			c.add("fusion", Error, n, "FusedBN on op %s, which FoldBN never folds into", n.Kind)
		}
		if n.EpiChannels > 0 {
			// The absorbed-BN epilogue exists only where the executor has a
			// fused FP32 kernel; elsewhere the affine would silently be
			// skipped by the generic fallback.
			if !n.Kind.AbsorbsAffine() {
				c.add("fusion", Error, n, "BN epilogue on op %s, which has no fused kernel", n.Kind)
			}
			if n.QWeights != nil {
				c.add("fusion", Error, n, "BN epilogue on an int8-dispatched node (the int8 requantize epilogue has no affine stage)")
			}
			if len(n.OutShape) > 0 && n.EpiChannels != n.OutShape[0] {
				c.add("fusion", Error, n, "BN epilogue has %d channels over output %v", n.EpiChannels, n.OutShape)
			}
		}
	}
}

// checkParams verifies that materialized parameter values agree with the
// node's structural description (structural-only nodes are legal — cost
// and timing experiments never allocate weights).
func (c *checker) checkParams() {
	for _, n := range c.g.Nodes {
		if n == nil {
			continue
		}
		if n.WShape == nil && n.Weights != nil {
			c.add("params", Error, n, "weights present but WShape is nil")
		}
		if n.Weights != nil && n.WShape != nil && !n.Weights.Shape.Equal(n.WShape) {
			c.add("params", Error, n, "weights shape %v, declared %v", n.Weights.Shape, n.WShape)
		}
		if n.Bias != nil && len(n.Bias) != n.BiasLen {
			c.add("params", Error, n, "bias length %d, declared %d", len(n.Bias), n.BiasLen)
		}
		if n.BN != nil {
			for _, arr := range [][]float32{n.BN.Gamma, n.BN.Beta, n.BN.Mean, n.BN.Variance} {
				if len(arr) != n.BNChannels {
					c.add("params", Error, n, "batch-norm arrays sized %d/%d/%d/%d, declared %d channels",
						len(n.BN.Gamma), len(n.BN.Beta), len(n.BN.Mean), len(n.BN.Variance), n.BNChannels)
					break
				}
			}
		}
		if n.EpiChannels > 0 {
			if (n.EpiScale != nil || n.EpiShift != nil) &&
				(len(n.EpiScale) != n.EpiChannels || len(n.EpiShift) != n.EpiChannels) {
				c.add("params", Error, n, "epilogue arrays sized %d/%d, declared %d channels",
					len(n.EpiScale), len(n.EpiShift), n.EpiChannels)
			}
		} else if n.EpiScale != nil || n.EpiShift != nil {
			c.add("params", Error, n, "epilogue arrays present but EpiChannels is 0")
		}
		if n.Sparsity < 0 || n.Sparsity > 1 {
			c.add("params", Error, n, "sparsity %v outside [0, 1]", n.Sparsity)
		}
		if q := n.QWeights; q != nil {
			if n.WShape == nil {
				c.add("params", Error, n, "int8 weights present but WShape is nil")
			} else if want := tensor.ConvCodeShape(n.WShape); !q.Shape.Equal(want) {
				c.add("params", Error, n, "int8 weights shape %v, want %v for declared %v", q.Shape, want, n.WShape)
			}
			if len(q.Data) != q.Shape.NumElems() {
				c.add("params", Error, n, "int8 weights hold %d values for shape %v", len(q.Data), q.Shape)
			}
			if q.Scales != nil && len(q.Shape) > 0 && len(q.Scales) != q.Shape[0] {
				c.add("params", Error, n, "int8 per-channel scales length %d, want %d", len(q.Scales), q.Shape[0])
			}
		}
	}
}

// checkLiveness reports nodes unreachable from any output as dead —
// legal to execute past, but a static framework would have eliminated
// them, so they usually indicate a broken pass or builder.
func (c *checker) checkLiveness() {
	reachable := make(map[*graph.Node]bool, len(c.g.Nodes))
	var mark func(n *graph.Node)
	mark = func(n *graph.Node) {
		if n == nil || reachable[n] {
			return
		}
		reachable[n] = true
		for _, in := range n.Inputs {
			if _, member := c.pos[in]; member {
				mark(in)
			}
		}
	}
	for _, root := range c.g.Roots() {
		if root != nil {
			if _, member := c.pos[root]; member {
				mark(root)
			}
		}
	}
	for _, n := range c.g.Nodes {
		if n != nil && !reachable[n] {
			c.add("dead-node", Warning, n, "unreachable from any graph output")
		}
	}
}
