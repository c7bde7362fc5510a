package exchange_test

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// container wraps a hand-written JSON header and a parameter section
// into an exchange container.
func container(header string, sec []byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(header)))
	return append(append(out, header...), sec...)
}

// editHeader applies edit to the JSON header of the container data and
// returns the rewrapped container, parameter section untouched.
func editHeader(t testing.TB, data []byte, edit func(string) string) []byte {
	t.Helper()
	if len(data) < 8 || binary.LittleEndian.Uint64(data) > uint64(len(data)-8) {
		t.Fatalf("not an exchange container: %d bytes", len(data))
	}
	h := 8 + binary.LittleEndian.Uint64(data)
	return container(edit(string(data[8:h])), data[h:])
}

// smallNet is a materialized conv → bn → relu → gap → dense graph with
// every float parameter kind the container carries: weights, bias, BN.
func smallNet() *graph.Graph {
	b := nn.NewBuilder("small", nn.Options{Materialize: true, Seed: 9}, 3, 6, 6)
	b.Conv2D("conv", 4, 3, 1, 1, true)
	b.BatchNorm("bn")
	b.ReLU("relu")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 3, true)
	return b.Build()
}

// sameBits fails unless a and b hold identical bit patterns.
func sameBits(t *testing.T, what string, a, b []float32) {
	t.Helper()
	if (a == nil) != (b == nil) || len(a) != len(b) {
		t.Fatalf("%s: %d values (nil %v) became %d (nil %v)", what, len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s[%d]: bits %#08x became %#08x", what, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
		}
	}
}

// sameParams fails unless every materialized parameter of g, float or
// int8, came back bit for bit in back.
func sameParams(t *testing.T, g, back *graph.Graph) {
	t.Helper()
	if len(g.Nodes) != len(back.Nodes) {
		t.Fatalf("%d nodes became %d", len(g.Nodes), len(back.Nodes))
	}
	for i, n := range g.Nodes {
		m := back.Nodes[i]
		if (n.Weights == nil) != (m.Weights == nil) {
			t.Fatalf("%s: weights present %v, after round trip %v", n, n.Weights != nil, m.Weights != nil)
		}
		if n.Weights != nil {
			sameBits(t, n.Name+" weights", n.Weights.Data, m.Weights.Data)
		}
		sameBits(t, n.Name+" bias", n.Bias, m.Bias)
		sameBits(t, n.Name+" epilogue scale", n.EpiScale, m.EpiScale)
		sameBits(t, n.Name+" epilogue shift", n.EpiShift, m.EpiShift)
		if (n.BN == nil) != (m.BN == nil) {
			t.Fatalf("%s: batch-norm present %v, after round trip %v", n, n.BN != nil, m.BN != nil)
		}
		if n.BN != nil {
			sameBits(t, n.Name+" gamma", n.BN.Gamma, m.BN.Gamma)
			sameBits(t, n.Name+" beta", n.BN.Beta, m.BN.Beta)
			sameBits(t, n.Name+" mean", n.BN.Mean, m.BN.Mean)
			sameBits(t, n.Name+" variance", n.BN.Variance, m.BN.Variance)
			sameBits(t, n.Name+" eps", []float32{n.BN.Eps}, []float32{m.BN.Eps})
		}
		if (n.QWeights == nil) != (m.QWeights == nil) {
			t.Fatalf("%s: int8 codes present %v, after round trip %v", n, n.QWeights != nil, m.QWeights != nil)
		}
		if q, p := n.QWeights, m.QWeights; q != nil {
			if !q.Shape.Equal(p.Shape) || len(q.Data) != len(p.Data) {
				t.Fatalf("%s: int8 codes %v/%d became %v/%d", n, q.Shape, len(q.Data), p.Shape, len(p.Data))
			}
			for j := range q.Data {
				if q.Data[j] != p.Data[j] {
					t.Fatalf("%s: int8 code %d: %d became %d", n, j, q.Data[j], p.Data[j])
				}
			}
			sameBits(t, n.Name+" int8 scale", []float32{q.Scale}, []float32{p.Scale})
			sameBits(t, n.Name+" int8 per-channel scales", q.Scales, p.Scales)
		}
	}
}

// TestRoundTripNonFinite: NaN (payload kept), ±Inf and −0 survive in
// weights, bias and batch-norm — the decimal text of format version 1
// could not even encode them.
func TestRoundTripNonFinite(t *testing.T) {
	g := smallNet()
	odd := []float32{
		math.Float32frombits(0x7fc01234), // quiet NaN with a payload
		math.Float32frombits(0xff800001), // signalling NaN, sign set
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)),
	}
	conv, bn, fc := g.Nodes[1], g.Nodes[2], g.Nodes[5]
	copy(conv.Weights.Data, odd)
	copy(conv.Bias, odd[1:])
	copy(fc.Weights.Data[7:], odd)
	copy(bn.BN.Gamma, odd)
	copy(bn.BN.Mean, odd[2:])
	bn.BN.Variance[1] = odd[0]
	bn.BN.Eps = odd[4]

	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, g, back)
}

// TestRoundTripInt8 is the int8 path through the exchange: a quantized
// SqueezeNet (O2, then QuantizeINT8, as the int8 stream benchmark
// builds it) must come back with its codes, its stem's padded to an even
// channel count, run the same kernels, and compute the same bits.
func TestRoundTripInt8(t *testing.T) {
	g := model.MustGet("SqueezeNet").Build(nn.Options{Materialize: true, Seed: 1})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	opt.QuantizeINT8(g)
	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, g, back)
	// The stem's three input channels round up to four, a zero code per
	// tap, and come back so.
	stem := back.Nodes[slices.IndexFunc(back.Nodes, func(n *graph.Node) bool { return n.Name == "conv1" })].QWeights
	if !stem.Shape.Equal(tensor.Shape{64, 3, 3, 4}) {
		t.Fatalf("conv1's codes came back as %v, want [64 3 3 4]", stem.Shape)
	}
	for i := 3; i < len(stem.Data); i += 4 {
		if stem.Data[i] != 0 {
			t.Fatalf("conv1's pad channel code %d is %d, want 0", i, stem.Data[i])
		}
	}

	in := tensor.New(g.Input.OutShape...).Randomize(stats.NewRNG(3), 1)
	want, err := (&graph.Executor{}).Run(g, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&graph.Executor{}).Run(back, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "output", want.Data, got.Data)
	src, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := graph.Compile(back)
	if err != nil {
		t.Fatal(err)
	}
	i8, f32, fused := src.Counts()
	bi8, bf32, bfused := dst.Counts()
	if i8 == 0 || i8 != bi8 || f32 != bf32 || fused != bfused {
		t.Fatalf("dispatch counts int8/fp32/fused %d/%d/%d became %d/%d/%d", i8, f32, fused, bi8, bf32, bfused)
	}
}

// TestRoundTripInt8PerChannel: per-channel scales ride beside the codes.
func TestRoundTripInt8PerChannel(t *testing.T) {
	g := randomCNN(3)
	opt.QuantizeINT8PerChannel(g)
	perChannel := 0
	for _, n := range g.Nodes {
		if n.QWeights != nil && n.QWeights.Scales != nil {
			perChannel++
		}
	}
	if perChannel == 0 {
		t.Fatal("no node was quantized per channel")
	}
	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, g, back)
}

// TestWeightedExportSize pins the container's cost: CifarNet's weighted
// export is at most 4 bytes per parameter plus a header under 64 KiB
// (decimal text took about 12.5 bytes per parameter), and int8
// SqueezeNet's at most a byte per code plus 4 per other float (biases,
// scales): a quantized node ships its codes and no FP32 copy of them.
func TestWeightedExportSize(t *testing.T) {
	cifar := model.MustGet("CifarNet").Build(nn.Options{Materialize: true, Seed: 1})
	squeeze := model.MustGet("SqueezeNet").Build(nn.Options{Materialize: true, Seed: 1})
	if _, err := opt.Optimize(squeeze, opt.O2); err != nil {
		t.Fatal(err)
	}
	opt.QuantizeINT8(squeeze)
	for _, g := range []*graph.Graph{cifar, squeeze} {
		data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
		if err != nil {
			t.Fatal(err)
		}
		header := binary.LittleEndian.Uint64(data)
		if header >= 64<<10 {
			t.Errorf("%s: header is %d bytes, want under 64 KiB", g.Name, header)
		}
		codes, floats := int64(0), g.Params()
		for _, n := range g.Nodes {
			if q := n.QWeights; q != nil {
				codes += int64(len(q.Data))
				floats += int64(1+len(q.Scales)) - int64(len(q.Data))
			}
		}
		if limit := codes + 4*floats + 64<<10; int64(len(data)) > limit {
			t.Errorf("%s: export of %d codes and %d floats is %d bytes, want at most %d",
				g.Name, codes, floats, len(data), limit)
		}
	}
}

// TestImportRejectsBadContainer walks the container's rejection rules:
// each must come back as an error, never a panic and never a graph.
func TestImportRejectsBadContainer(t *testing.T) {
	g := smallNet()
	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	v1 := `{"version":1,"name":"x","mode":"static","input_shape":[1,2,2],` +
		`"nodes":[{"name":"input","kind":"input","inputs":[]}],"output":0}`
	// ref rewrites the first reference named field in the header.
	ref := func(field, to string) []byte {
		return editHeader(t, data, func(s string) string {
			i := strings.Index(s, `"`+field+`":{`)
			if i < 0 {
				t.Fatalf("header has no %s reference", field)
			}
			j := i + strings.Index(s[i:], "}") + 1
			return s[:i] + `"` + field + `":` + to + s[j:]
		})
	}
	long := binary.LittleEndian.AppendUint64(nil, uint64(len(data)))
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "shorter"},
		{"short", data[:7], "shorter"},
		{"header past end", append(long, data[8:]...), "runs past"},
		{"version 1 JSON", []byte(v1), "version-1"},
		{"version 2 container", editHeader(t, data, func(s string) string {
			return strings.Replace(s, `"version":3`, `"version":2`, 1)
		}), "version-2"},
		{"truncated section", data[:len(data)-5], "outside"},
		{"negative offset", ref("weights", `{"off":-4,"n":108}`), "outside"},
		{"offset past end", ref("bias", `{"off":1000000,"n":4}`), "outside"},
		{"huge count", ref("weights", `{"off":0,"n":4611686018427387904}`), "want 108"},
		{"weights count", ref("weights", `{"off":0,"n":107}`), "want 108"},
		{"bias count", ref("bias", `{"off":0,"n":3}`), "want 4"},
		{"bn count", ref("bn", `{"off":0,"n":16}`), "want 17"},
		{"int8 scales without codes", ref("bias", `{"off":0,"n":4},"q_scales":{"off":0,"n":1}`), "together"},
	}
	for _, tc := range cases {
		back, err := exchange.Import(tc.data)
		if err == nil || back != nil {
			t.Errorf("%s: import returned (%v, %v), want an error", tc.name, back, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// An epilogue count that disagrees with EpiChannels.
	fused := smallNet()
	if _, err := opt.Optimize(fused, opt.O2); err != nil {
		t.Fatal(err)
	}
	fdata, err := exchange.Export(fused, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := editHeader(t, fdata, func(s string) string {
		i := strings.Index(s, `"epi_scale":{`)
		if i < 0 {
			t.Fatal("O2 left no epilogue to corrupt")
		}
		j := i + strings.Index(s[i:], `"n":`) + len(`"n":`)
		return s[:j] + "1" + s[j+1:]
	})
	if _, err := exchange.Import(bad); err == nil || !strings.Contains(err.Error(), "epilogue") {
		t.Errorf("epilogue count: error %v, want an epilogue count mismatch", err)
	}
}

// BenchmarkExportImport prices one weighted Export + Import round trip:
// what a pipeline stage pays per configure.
func BenchmarkExportImport(b *testing.B) {
	for _, name := range []string{"CifarNet", "MobileNet-v2"} {
		g := model.MustGet(name).Build(nn.Options{Materialize: true, Seed: 1})
		b.Run(name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exchange.Import(data); err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.ReportMetric(float64(size)/1e6, "MB")
		})
	}
}
