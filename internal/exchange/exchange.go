// Package exchange implements an ONNX-style model interchange format
// for the graph IR. The paper devotes §III-B to the interoperability
// pain it hit — "we find limited compatibility among frameworks... each
// framework usually requires its own model description format" — and
// cites the then-nascent ONNX effort as the way out. This package is
// that way out for the edgebench engine: a versioned binary container
// that round-trips structure exactly and parameters optionally, bit for
// bit, plus per-framework import checks that reproduce the paper's
// compatibility quirks (NCSDK and the EdgeTPU compiler reject what they
// cannot lower).
//
// Like ONNX, the container keeps tensors as raw bytes, not as text:
//
//	u64 little-endian   length H of the header
//	H bytes             JSON header: File, the graph's structure
//	the rest            parameter section: raw little-endian values
//
// Every parameter array in the header is a Ref into the parameter
// section — float32 values as 4-byte IEEE-754 words, int8 codes one
// byte each — so no decimal text ever carries a weight, and NaN
// payloads, infinities and signed zeros survive. A structural export
// has an empty section.
package exchange

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// FormatVersion guards decoding across releases. Version 1 was a pure
// JSON document with decimal weights; version 2 held int8 codes in their
// weights' logical order, [Cout, Cin, KH, KW], where version 3 holds them
// as the int8 kernel reads them (tensor.ConvCodeShape). Import rejects
// both by name.
const FormatVersion = 3

// File is the container's JSON header.
type File struct {
	Version    int        `json:"version"`
	Name       string     `json:"name"`
	Mode       string     `json:"mode"`
	InputShape []int      `json:"input_shape"`
	Nodes      []NodeJSON `json:"nodes"`
	// Output and Extra reference node indices.
	Output int   `json:"output"`
	Extra  []int `json:"extra,omitempty"`
}

// Ref locates one parameter array in the parameter section: N values
// starting at byte Off (4 bytes per float32, 1 per int8 code).
type Ref struct {
	Off int `json:"off"`
	N   int `json:"n"`
}

// NodeJSON serializes one operation.
type NodeJSON struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Inputs []int  `json:"inputs"` // indices into Nodes; -1 = graph input

	Kernel  int     `json:"kernel,omitempty"`
	KernelD int     `json:"kernel_d,omitempty"`
	Stride  int     `json:"stride,omitempty"`
	StrideD int     `json:"stride_d,omitempty"`
	Pad     int     `json:"pad,omitempty"`
	PadH    int     `json:"pad_h,omitempty"`
	PadW    int     `json:"pad_w,omitempty"`
	Asym    bool    `json:"asym,omitempty"`
	Groups  int     `json:"groups,omitempty"`
	Factor  int     `json:"factor,omitempty"`
	Alpha   float32 `json:"alpha,omitempty"`

	WShape     []int `json:"w_shape,omitempty"`
	BiasLen    int   `json:"bias_len,omitempty"`
	BNChannels int   `json:"bn_channels,omitempty"`

	// Deployment annotations (set by lowering passes). EpiChannels
	// records an absorbed batch-norm epilogue (graph.FusePatterns); the
	// materialized scale/shift ride with the weights below.
	DType       string  `json:"dtype,omitempty"`
	Activation  string  `json:"activation,omitempty"`
	FusedBN     bool    `json:"fused_bn,omitempty"`
	EpiChannels int     `json:"epi_channels,omitempty"`
	Sparsity    float64 `json:"sparsity,omitempty"`

	// Optional materialized parameters (Options.IncludeWeights). BN is
	// gamma, beta, mean and variance (BNChannels values each), then eps.
	// QCodes are the int8 weight codes the int8 kernels run (one byte
	// each); QScales is their per-tensor scale, followed by one scale per
	// output channel when the codes were quantized per channel.
	Weights  *Ref `json:"weights,omitempty"`
	Bias     *Ref `json:"bias,omitempty"`
	EpiScale *Ref `json:"epi_scale,omitempty"`
	EpiShift *Ref `json:"epi_shift,omitempty"`
	BN       *Ref `json:"bn,omitempty"`
	QCodes   *Ref `json:"q_codes,omitempty"`
	QScales  *Ref `json:"q_scales,omitempty"`
}

// Options configures export.
type Options struct {
	// IncludeWeights embeds materialized parameters (large!). Structural
	// exports carry shapes only — enough for cost modeling and timing.
	IncludeWeights bool
}

// kindNames maps op kinds to stable wire names.
var kindNames = map[graph.OpKind]string{
	graph.OpInput: "input", graph.OpConv2D: "conv2d",
	graph.OpDepthwiseConv2D: "dwconv2d", graph.OpConv3D: "conv3d",
	graph.OpDense: "dense", graph.OpBatchNorm: "batchnorm",
	graph.OpReLU: "relu", graph.OpReLU6: "relu6",
	graph.OpLeakyReLU: "leaky_relu", graph.OpSigmoid: "sigmoid",
	graph.OpTanh: "tanh", graph.OpMaxPool2D: "maxpool2d",
	graph.OpAvgPool2D: "avgpool2d", graph.OpMaxPool3D: "maxpool3d",
	graph.OpGlobalAvgPool: "global_avgpool", graph.OpAdd: "add",
	graph.OpConcat: "concat", graph.OpFlatten: "flatten",
	graph.OpSoftmax: "softmax", graph.OpPad: "pad",
	graph.OpUpsample: "upsample", graph.OpLSTM: "lstm",
	graph.OpShuffle: "shuffle", graph.OpConst: "const",
}

var kindValues = func() map[string]graph.OpKind {
	m := make(map[string]graph.OpKind, len(kindNames))
	for k, v := range kindNames {
		m[v] = k
	}
	return m
}()

var dtypeValues = map[string]tensor.DType{
	"fp32": tensor.FP32, "fp16": tensor.FP16,
	"int8": tensor.INT8, "fp64": tensor.FP64,
}

// section lays out the parameter section: Export takes references while
// it builds the header, and writes the bytes once the container can be
// allocated at its final size.
type section struct {
	size   int
	chunks []chunk
}

// chunk is one array bound for the section: float32 values or int8 codes.
type chunk struct {
	f []float32
	q []int8
}

// floats lays the arrays out back to back and returns one reference to
// them all; a lone nil array stays nil.
func (s *section) floats(arrays ...[]float32) *Ref {
	if len(arrays) == 1 && arrays[0] == nil {
		return nil
	}
	r := &Ref{Off: s.size}
	for _, v := range arrays {
		r.N += len(v)
		s.chunks = append(s.chunks, chunk{f: v})
	}
	s.size += 4 * r.N
	return r
}

// codes lays out int8 codes, one byte each, and returns their reference.
func (s *section) codes(v []int8) *Ref {
	r := &Ref{Off: s.size, N: len(v)}
	s.chunks = append(s.chunks, chunk{q: v})
	s.size += len(v)
	return r
}

// appendTo appends the section's bytes to dst.
func (s *section) appendTo(dst []byte) []byte {
	for _, c := range s.chunks {
		for _, x := range c.f {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
		}
		for _, x := range c.q {
			dst = append(dst, byte(x))
		}
	}
	return dst
}

// Export serializes a graph.
func Export(g *graph.Graph, opts Options) ([]byte, error) {
	idx := make(map[*graph.Node]int, len(g.Nodes))
	f := File{
		Version:    FormatVersion,
		Name:       g.Name,
		Mode:       g.Mode.String(),
		InputShape: append([]int(nil), g.Input.OutShape...),
	}
	var sec section
	for i, n := range g.Nodes {
		idx[n] = i
		kind, ok := kindNames[n.Kind]
		if !ok {
			return nil, fmt.Errorf("exchange: unsupported op %v", n.Kind)
		}
		nj := NodeJSON{
			Name: n.Name, Kind: kind,
			Kernel: n.Attrs.Kernel, KernelD: n.Attrs.KernelD,
			Stride: n.Attrs.Stride, StrideD: n.Attrs.StrideD,
			Pad: n.Attrs.Pad, PadH: n.Attrs.PadH, PadW: n.Attrs.PadW,
			Asym: n.Attrs.Asym, Groups: n.Attrs.Groups,
			Factor: n.Attrs.Factor, Alpha: n.Attrs.Alpha,
			WShape: n.WShape, BiasLen: n.BiasLen, BNChannels: n.BNChannels,
			FusedBN: n.FusedBN, EpiChannels: n.EpiChannels, Sparsity: n.Sparsity,
		}
		if n.DType != tensor.FP32 {
			nj.DType = n.DType.String()
		}
		if n.Activation != 0 {
			act, ok := kindNames[n.Activation]
			if !ok {
				return nil, fmt.Errorf("exchange: unsupported fused activation %v", n.Activation)
			}
			nj.Activation = act
		}
		for _, in := range n.Inputs {
			j, ok := idx[in]
			if !ok {
				return nil, fmt.Errorf("exchange: node %s references an unserialized input", n)
			}
			nj.Inputs = append(nj.Inputs, j)
		}
		if opts.IncludeWeights {
			if n.Weights != nil {
				nj.Weights = sec.floats(n.Weights.Data)
			}
			nj.Bias = sec.floats(n.Bias)
			if bn := n.BN; bn != nil {
				nj.BN = sec.floats(bn.Gamma, bn.Beta, bn.Mean, bn.Variance, []float32{bn.Eps})
			}
			nj.EpiScale, nj.EpiShift = sec.floats(n.EpiScale), sec.floats(n.EpiShift)
			if q := n.QWeights; q != nil {
				nj.QCodes = sec.codes(q.Data)
				nj.QScales = sec.floats([]float32{q.Scale}, q.Scales)
			}
		}
		f.Nodes = append(f.Nodes, nj)
	}
	f.Output = idx[g.Output]
	for _, x := range g.Extra {
		f.Extra = append(f.Extra, idx[x])
	}
	hdr, err := json.Marshal(&f)
	if err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	out := make([]byte, 8, 8+len(hdr)+sec.size)
	binary.LittleEndian.PutUint64(out, uint64(len(hdr)))
	return sec.appendTo(append(out, hdr...)), nil
}

// split separates a container into its decoded header and its
// parameter section.
func split(data []byte) (*File, []byte, error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("exchange: %d-byte input is shorter than the 8-byte header length", len(data))
	}
	h := binary.LittleEndian.Uint64(data)
	if h > uint64(len(data)-8) {
		if data[0] == '{' {
			return nil, nil, fmt.Errorf("exchange: input is a version-1 JSON export; "+
				"this reader takes only the version-%d binary container", FormatVersion)
		}
		return nil, nil, fmt.Errorf("exchange: header length %d runs past the %d-byte container", h, len(data))
	}
	var f File
	if err := json.Unmarshal(data[8:8+h], &f); err != nil {
		return nil, nil, fmt.Errorf("exchange: header: %w", err)
	}
	if f.Version == 2 {
		return nil, nil, fmt.Errorf("exchange: input is a version-2 container, whose int8 codes lie in "+
			"[Cout, Cin, KH, KW] order; this reader takes only the version-%d container", FormatVersion)
	}
	if f.Version != FormatVersion {
		return nil, nil, fmt.Errorf("exchange: format version %d, want %d", f.Version, FormatVersion)
	}
	return &f, data[8+h:], nil
}

// decoder reads references out of one parameter section. The first
// failure sticks in err; every read after it returns nil.
type decoder struct {
	sec []byte
	err error
}

// span returns the bytes r covers at size bytes per value, after
// checking that r holds exactly want values and lies inside the section.
// A nil r spans nothing.
func (d *decoder) span(r *Ref, size, want int, what string) []byte {
	switch {
	case r == nil || d.err != nil:
		return nil
	case r.N != want:
		d.err = fmt.Errorf("%s holds %d values, want %d", what, r.N, want)
		return nil
	case r.Off < 0 || r.N < 0 || r.Off > len(d.sec) || r.N > (len(d.sec)-r.Off)/size:
		d.err = fmt.Errorf("%s reference {off %d, n %d} lies outside the %d-byte parameter section",
			what, r.Off, r.N, len(d.sec))
		return nil
	}
	return d.sec[r.Off : r.Off+size*r.N : r.Off+size*r.N]
}

// floats decodes a float32 array of want values.
func (d *decoder) floats(r *Ref, want int, what string) []float32 {
	b := d.span(r, 4, want, what)
	if r == nil || d.err != nil {
		return nil
	}
	v := make([]float32, r.N)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// node restores n's materialized parameters from nj's references, each
// count checked against the structural description n already carries.
func (d *decoder) node(n *graph.Node, nj *NodeJSON) {
	elems := n.WShape.NumElems()
	if w := d.floats(nj.Weights, elems, "weights"); w != nil {
		n.Weights = tensor.FromData(w, n.WShape...)
	}
	n.Bias = d.floats(nj.Bias, n.BiasLen, "bias")
	n.EpiScale = d.floats(nj.EpiScale, n.EpiChannels, "epilogue scale")
	n.EpiShift = d.floats(nj.EpiShift, n.EpiChannels, "epilogue shift")
	if v := d.floats(nj.BN, 4*n.BNChannels+1, "batch-norm parameters"); v != nil {
		c := n.BNChannels
		n.BN = &graph.BNParams{
			Gamma: v[:c:c], Beta: v[c : 2*c : 2*c],
			Mean: v[2*c : 3*c : 3*c], Variance: v[3*c : 4*c : 4*c], Eps: v[4*c],
		}
	}
	if nj.QCodes == nil && nj.QScales == nil {
		return
	}
	if nj.QCodes == nil || nj.QScales == nil {
		d.err = fmt.Errorf("int8 codes and scales must come together")
		return
	}
	// One scale per tensor, or that scale followed by one per output
	// channel.
	want := 1
	if nj.QScales.N != 1 && len(n.WShape) > 0 {
		want += max(n.WShape[0], 0)
	}
	shape := tensor.ConvCodeShape(n.WShape)
	scales := d.floats(nj.QScales, want, "int8 scales")
	codes := d.span(nj.QCodes, 1, shape.NumElems(), "int8 codes")
	if d.err != nil {
		return
	}
	q := &tensor.QTensor{Shape: shape, Data: make([]int8, len(codes)), Scale: scales[0]}
	for i, x := range codes {
		q.Data[i] = int8(x)
	}
	if len(scales) > 1 {
		q.Scales = scales[1:]
	}
	n.QWeights = q
}

// Import deserializes a graph and validates it structurally.
func Import(data []byte) (*graph.Graph, error) {
	f, sec, err := split(data)
	if err != nil {
		return nil, err
	}
	if len(f.Nodes) == 0 {
		return nil, fmt.Errorf("exchange: empty model")
	}
	g := &graph.Graph{Name: f.Name}
	if f.Mode == "dynamic" {
		g.Mode = graph.Dynamic
	}
	nodes := make([]*graph.Node, len(f.Nodes))
	d := &decoder{sec: sec}
	for i := range f.Nodes {
		nj := &f.Nodes[i]
		kind, ok := kindValues[nj.Kind]
		if !ok {
			return nil, fmt.Errorf("exchange: node %d: unknown kind %q", i, nj.Kind)
		}
		n := &graph.Node{
			Name: nj.Name, Kind: kind,
			Attrs: graph.Attrs{
				Kernel: nj.Kernel, KernelD: nj.KernelD,
				Stride: nj.Stride, StrideD: nj.StrideD,
				Pad: nj.Pad, PadH: nj.PadH, PadW: nj.PadW,
				Asym: nj.Asym, Groups: nj.Groups,
				Factor: nj.Factor, Alpha: nj.Alpha,
			},
			WShape: nj.WShape, BiasLen: nj.BiasLen, BNChannels: nj.BNChannels,
			FusedBN: nj.FusedBN, EpiChannels: nj.EpiChannels, Sparsity: nj.Sparsity,
		}
		if nj.DType != "" {
			dt, ok := dtypeValues[nj.DType]
			if !ok {
				return nil, fmt.Errorf("exchange: node %d: unknown dtype %q", i, nj.DType)
			}
			n.DType = dt
		}
		if nj.Activation != "" {
			act, ok := kindValues[nj.Activation]
			if !ok || !act.IsActivation() {
				return nil, fmt.Errorf("exchange: node %d: bad fused activation %q", i, nj.Activation)
			}
			n.Activation = act
		}
		for _, j := range nj.Inputs {
			if j < 0 || j >= i {
				return nil, fmt.Errorf("exchange: node %d: input index %d violates topological order", i, j)
			}
			n.Inputs = append(n.Inputs, nodes[j])
		}
		if kind == graph.OpInput {
			n.OutShape = tensor.Shape(f.InputShape).Clone()
			g.Input = n
		} else {
			shape, err := graph.InferShapeE(n)
			if err != nil {
				return nil, fmt.Errorf("exchange: node %d: %w", i, err)
			}
			n.OutShape = shape
		}
		if d.node(n, nj); d.err != nil {
			return nil, fmt.Errorf("exchange: node %d: %w", i, d.err)
		}
		nodes[i] = n
		g.Append(n)
	}
	if f.Output < 0 || f.Output >= len(nodes) {
		return nil, fmt.Errorf("exchange: output index %d out of range", f.Output)
	}
	g.Output = nodes[f.Output]
	for _, j := range f.Extra {
		if j < 0 || j >= len(nodes) {
			return nil, fmt.Errorf("exchange: extra output index %d out of range", j)
		}
		g.Extra = append(g.Extra, nodes[j])
	}
	if g.Input == nil {
		return nil, fmt.Errorf("exchange: model has no input node")
	}
	// Full static verification: a malformed serialized graph must never
	// reach a session. Error-severity diagnostics reject the file;
	// warnings (dead nodes a dynamic-mode exporter left in) are tolerated.
	if err := verify.Err(verify.Check(g)); err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	return g, nil
}
