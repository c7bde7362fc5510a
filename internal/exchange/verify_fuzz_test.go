package exchange_test

import (
	"testing"

	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/verify"
)

// FuzzVerify is the verifier's soundness gate on the import boundary:
// whatever bytes arrive, Import either rejects them with an error or
// produces a graph that verify.Check passes with no Error-severity
// diagnostics — an unverifiable graph must never come back without an
// error. verify.Check itself must never panic on the way.
func FuzzVerify(f *testing.F) {
	// Real exports — structural and with weights — seed the valid side.
	for seed := int64(0); seed < 4; seed++ {
		g := randomCNN(seed)
		for _, opts := range []exchange.Options{{}, {IncludeWeights: true}} {
			data, err := exchange.Export(g, opts)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// Hand-corrupted files seed the invalid side: wrong weight counts,
	// dangling indices, bogus dtypes, self-referential inputs, references
	// outside a truncated section.
	for _, corrupt := range []struct {
		header string
		sec    []byte
	}{
		{`{"version":3,"name":"x","input_shape":[1,2,2],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]},` +
			`{"name":"r","kind":"relu","inputs":[5]}],"output":1}`, nil},
		{`{"version":3,"name":"x","input_shape":[1,2,2],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]},` +
			`{"name":"r","kind":"relu","inputs":[1]}],"output":1}`, nil},
		{`{"version":3,"name":"x","input_shape":[1,2,2],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]},` +
			`{"name":"c","kind":"conv2d","inputs":[0],"kernel":3,"stride":1,` +
			`"w_shape":[4,1,3,3],"weights":{"off":0,"n":3}}],"output":1}`, make([]byte, 12)},
		{`{"version":3,"name":"x","input_shape":[1,2,2],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]},` +
			`{"name":"c","kind":"conv2d","inputs":[0],"kernel":1,"stride":1,` +
			`"w_shape":[1,1,1,1],"weights":{"off":0,"n":1}}],"output":1}`, make([]byte, 3)},
		{`{"version":3,"name":"x","input_shape":[1,2,2],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]},` +
			`{"name":"r","kind":"relu","inputs":[0],"dtype":"int9"}],"output":1}`, nil},
		{`{"version":3,"name":"x","input_shape":[-1,0],"nodes":[` +
			`{"name":"in","kind":"input","inputs":[]}],"output":0}`, nil},
	} {
		f.Add(container(corrupt.header, corrupt.sec))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := exchange.Import(data)
		if err != nil {
			return // rejection is the correct outcome for malformed input
		}
		if verr := verify.Err(verify.Check(g)); verr != nil {
			t.Fatalf("Import accepted an unverifiable graph: %v", verr)
		}
	})
}

// TestVerifyNeverPanicsOnCorruptGraphs drives verify.Check over directly
// corrupted in-memory graphs — states no importer would produce — as a
// deterministic complement to the fuzzer.
func TestVerifyNeverPanicsOnCorruptGraphs(t *testing.T) {
	corruptions := []func(g *graph.Graph){
		func(g *graph.Graph) { g.Nodes[1] = nil },
		func(g *graph.Graph) { g.Nodes[1].Inputs = []*graph.Node{g.Nodes[len(g.Nodes)-1]} },
		func(g *graph.Graph) { g.Input = nil },
		func(g *graph.Graph) { g.Output = nil },
		func(g *graph.Graph) { g.Nodes[1].OutShape = nil },
		func(g *graph.Graph) { g.Nodes[1].Attrs.Kernel = -3 },
		func(g *graph.Graph) { g.Nodes = g.Nodes[:0] },
	}
	for i, corrupt := range corruptions {
		g := randomCNN(int64(100 + i))
		corrupt(g)
		_ = verify.Check(g) // must not panic; diagnostics content is free-form
	}
}
