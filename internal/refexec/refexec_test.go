package refexec_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/refexec"
	"edgebench/internal/tensor"
)

// TestOracleSharesNoEngineCode keeps the oracle independent of what it
// checks: its non-test files may import no module package but graph
// (the IR it interprets) and tensor, and may name nothing in tensor but
// the Tensor and Shape types and their constructors. A kernel borrowed
// from tensor would make a bug in that kernel agree with itself.
func TestOracleSharesNoEngineCode(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]bool{"edgebench/internal/graph": true, "edgebench/internal/tensor": true}
	names := map[string]bool{"Tensor": true, "Shape": true, "New": true, "FromData": true}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "edgebench/") && !imports[path] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
			if imp.Name != nil && path == "edgebench/internal/tensor" {
				t.Errorf("%s renames the tensor import", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "tensor" && !names[sel.Sel.Name] {
				t.Errorf("%s uses tensor.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test files parsed")
	}
}

// op builds a one-op graph over an input of the given shape.
func op(shape tensor.Shape, n *graph.Node) *graph.Graph {
	g := graph.New("op", shape...)
	if n.Weights != nil {
		n.WShape = n.Weights.Shape
	}
	g.Add(n)
	return g
}

func seq(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i + 1)
	}
	return out
}

// TestKnownAnswers checks ops against values worked out by hand.
func TestKnownAnswers(t *testing.T) {
	ones := tensor.New(1, 1, 2, 2)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	for _, c := range []struct {
		name  string
		shape tensor.Shape
		in    []float32
		node  *graph.Node
		want  []float32
	}{
		{"conv 2x2 of ones", tensor.Shape{1, 3, 3}, seq(9),
			&graph.Node{Kind: graph.OpConv2D, Weights: ones, BiasLen: 1, Bias: []float32{0.5}},
			[]float32{12.5, 16.5, 24.5, 28.5}},
		{"grouped 1x1 conv", tensor.Shape{2, 1, 2}, seq(4),
			&graph.Node{Kind: graph.OpConv2D, Attrs: graph.Attrs{Groups: 2}, Weights: tensor.FromData([]float32{2, 3}, 2, 1, 1, 1)},
			[]float32{2, 4, 9, 12}},
		{"depthwise, padded, stride 2", tensor.Shape{1, 3, 3}, seq(9),
			&graph.Node{Kind: graph.OpDepthwiseConv2D, Attrs: graph.Attrs{Stride: 2, Pad: 1}, Weights: tensor.FromData([]float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 3, 3)},
			[]float32{12, 16, 24, 28}},
		{"max pool", tensor.Shape{1, 4, 4}, seq(16),
			&graph.Node{Kind: graph.OpMaxPool2D, Attrs: graph.Attrs{Kernel: 2}},
			[]float32{6, 8, 14, 16}},
		{"avg pool counts only the input", tensor.Shape{1, 2, 2}, seq(4),
			&graph.Node{Kind: graph.OpAvgPool2D, Attrs: graph.Attrs{Kernel: 2, Stride: 1, Pad: 1}},
			[]float32{1, 1.5, 2, 2, 2.5, 3, 3, 3.5, 4}},
		{"shuffle", tensor.Shape{4, 1, 1}, seq(4),
			&graph.Node{Kind: graph.OpShuffle, Attrs: graph.Attrs{Groups: 2}},
			[]float32{1, 3, 2, 4}},
		{"batchnorm", tensor.Shape{1, 1, 2}, []float32{3, -1},
			&graph.Node{Kind: graph.OpBatchNorm, BNChannels: 1, BN: &graph.BNParams{Gamma: []float32{2}, Beta: []float32{1}, Mean: []float32{1}, Variance: []float32{3}, Eps: 1}},
			[]float32{3, -1}},
		{"softmax", tensor.Shape{2}, []float32{0, float32(math.Log(3))},
			&graph.Node{Kind: graph.OpSoftmax},
			[]float32{0.25, 0.75}},
		{"relu6", tensor.Shape{3}, []float32{-2, 3, 9},
			&graph.Node{Kind: graph.OpReLU6},
			[]float32{0, 3, 6}},
		{"pad", tensor.Shape{1, 1, 1}, []float32{7},
			&graph.Node{Kind: graph.OpPad, Attrs: graph.Attrs{Pad: 1}},
			[]float32{0, 0, 0, 0, 7, 0, 0, 0, 0}},
		{"upsample", tensor.Shape{1, 1, 2}, []float32{1, 2},
			&graph.Node{Kind: graph.OpUpsample, Attrs: graph.Attrs{Factor: 2}},
			[]float32{1, 1, 2, 2, 1, 1, 2, 2}},
	} {
		g := op(c.shape, c.node)
		vals, err := refexec.Run(g, tensor.FromData(c.in, c.shape...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := vals[g.Output].Data
		for i, w := range c.want {
			if math.Abs(float64(got[i]-w)) > 1e-6 {
				t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

// TestRunErrors: what the oracle does not implement is an error naming
// the op, and so are a missing or misshapen input and parameters that
// do not fit the node.
func TestRunErrors(t *testing.T) {
	conv := func(edit func(n *graph.Node)) *graph.Graph {
		b := nn.NewBuilder("e", nn.Options{Materialize: true, Seed: 1}, 2, 4, 4)
		edit(b.Conv2D("c", 2, 3, 1, 1, true))
		return b.Build()
	}
	in := tensor.New(2, 4, 4)
	c3d := nn.NewBuilder("c3d", nn.Options{Materialize: true, Seed: 1}, 1, 2, 4, 4)
	c3d.Conv3D("c3", 2, 1, 1, 0, false)
	for _, c := range []struct {
		name, want string
		g          *graph.Graph
		in         *tensor.Tensor
	}{
		{"nil input", "input is nil", conv(func(*graph.Node) {}), nil},
		{"wrong shape", "input shape", conv(func(*graph.Node) {}), tensor.New(2, 4, 5)},
		{"int8 codes", "conv2d with int8 codes", conv(func(n *graph.Node) { n.QWeights = tensor.QuantizeSymmetric(n.Weights) }), in},
		{"epilogue", "conv2d with an absorbed", conv(func(n *graph.Node) {
			n.EpiChannels, n.EpiScale, n.EpiShift = 2, []float32{1, 1}, []float32{0, 0}
		}), in},
		{"fused activation", "conv2d with a fused relu", conv(func(n *graph.Node) { n.Activation = graph.OpReLU }), in},
		{"3-D op", "conv3d is not implemented", c3d.Build(), tensor.New(1, 2, 4, 4)},
		{"short bias", "conv2d: runtime error", conv(func(n *graph.Node) { n.Bias = n.Bias[:1] }), in},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := refexec.Run(c.g, c.in); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestRunLeavesGraphShared: training runs the oracle on a graph that
// serving replicas may be running at the same time, so the oracle must
// not write the graph. One goroutine runs the oracle while another runs
// the engine on the same dynamic graph; under -race any write to the
// graph is reported, and each keeps producing its first run's values.
func TestRunLeavesGraphShared(t *testing.T) {
	b := nn.NewBuilder("shared", nn.Options{Materialize: true, Seed: 72}, 3, 8, 8)
	b.Conv2D("conv", 4, 3, 1, 1, true)
	b.BatchNorm("bn")
	b.ReLU("relu")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	g := b.Build()
	g.Mode = graph.Dynamic
	in := tensor.New(3, 8, 8).Fill(0.3)
	ref, err := refexec.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			vals, err := refexec.Run(g, in)
			if err != nil {
				t.Error(err)
				return
			}
			if len(vals) != len(g.Nodes) || refexec.Error(vals[g.Output], ref[g.Output]) > 0 {
				t.Error("the oracle lost values or diverged while the engine shared the graph")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var e graph.Executor
		for i := 0; i < 20; i++ {
			got, err := e.Run(g, in)
			if err != nil {
				t.Error(err)
				return
			}
			if refexec.Error(got, want) > 0 {
				t.Error("the engine diverged while the oracle shared the graph")
				return
			}
		}
	}()
	wg.Wait()
	if g.Mode != graph.Dynamic {
		t.Fatal("graph mode changed")
	}
}
