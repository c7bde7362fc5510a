package graph_test

import (
	"testing"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// TestObserverSeesEveryStepOnce pins Executor.Observe's contract on a
// graph with a concat fan-in, a residual Add and a pooled arena: each
// Run reports every step of Program.Steps exactly once, in that order,
// with start times that do not go back, and with the bytes of the
// tensors the step read and wrote — 4 per element of its operands' and
// its node's shapes. Observing changes no output bit.
func TestObserverSeesEveryStepOnce(t *testing.T) {
	g := branchyCNN(t, 31)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	want := run(t, g, in)

	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	e := graph.NewExecutors(p, 1)[0]
	var seen []int
	var last time.Time
	e.Observe = func(i int, start time.Time, d time.Duration, bytesIn, bytesOut int) {
		seen = append(seen, i)
		if start.Before(last) || d < 0 {
			t.Errorf("step %d: start %v before the previous step's %v, or duration %v < 0", i, start, last, d)
		}
		last = start
		n := steps[i].Node
		wantIn := 0
		for _, x := range n.Inputs {
			wantIn += 4 * x.OutShape.NumElems()
		}
		if bytesIn != wantIn || bytesOut != 4*n.OutShape.NumElems() {
			t.Errorf("step %d (%s): bytes in/out %d/%d, want %d/%d", i, n, bytesIn, bytesOut, wantIn, 4*n.OutShape.NumElems())
		}
	}
	for r := 0; r < 2; r++ {
		seen = seen[:0]
		got, err := e.Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, "observed run", got, want)
		if len(seen) != len(steps) {
			t.Fatalf("run %d: observer saw %d steps, program has %d", r, len(seen), len(steps))
		}
		for i, s := range seen {
			if s != i {
				t.Fatalf("run %d: call %d reported step %d", r, i, s)
			}
		}
	}
	for i, s := range steps {
		if s.Node != g.Nodes[s.Out] || s.Node.Kind == graph.OpInput {
			t.Errorf("step %d: node %s is not value %d of the graph, or is its input", i, s.Node, s.Out)
		}
	}
}
