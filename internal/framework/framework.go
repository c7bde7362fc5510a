// Package framework models the paper's nine DNN frameworks (Table II):
// their feature matrix, the graph-optimization pipelines they apply when
// lowering a model for a device, and the model-platform compatibility
// rules of Table V. A Framework does real work here — its Lower method
// runs actual graph passes (fusion, quantization, FP16 casting, freezing)
// from internal/graph, so the latency and memory consequences the paper
// measures emerge from the transformed graph, not from hardcoded factors.
package framework

import (
	"fmt"
	"sort"

	"edgebench/internal/device"
	"edgebench/internal/graph"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

// Stars is the 1-3 rating scale Table II uses for qualitative columns.
type Stars int

func (s Stars) String() string {
	if s < 1 || s > 3 {
		return "?"
	}
	return "***"[:s]
}

// MobileSupport grades mobile-deployment support (Table II).
type MobileSupport int

const (
	// NoMobile means no mobile deployment path.
	NoMobile MobileSupport = iota
	// PartialMobile means partial support (Caffe2).
	PartialMobile
	// FullMobile means first-class support (TFLite).
	FullMobile
)

// Optimizations mirrors Table II's optimization rows.
type Optimizations struct {
	Quantization   bool // INT8 post-training quantization
	MixedPrecision bool // mixed-precision inferencing
	DynamicGraph   bool // define-by-run graphs
	PruningExploit bool // exploits pruned (sparse) weights in compute
	Fusion         bool // kernel fusion (conv+BN+activation)
	AutoTuning     bool // automatic tuning to the hardware platform
	HalfPrecision  bool // FP16 inference
}

// Framework describes one DNN framework and its lowering behaviour.
type Framework struct {
	Name     string
	Language string // main interfacing language

	IndustryBacked    bool
	TrainingFramework bool
	NoExtraSteps      bool // deployment needs no extra preparation
	Mobile            MobileSupport

	// Qualitative Table II ratings.
	Usability     Stars
	AddingModels  Stars
	PreDefined    Stars
	Documentation Stars
	LowLevel      Stars
	Compatibility Stars

	Opts Optimizations

	// Mode is the graph-construction discipline.
	Mode graph.Mode

	// Performance-model knobs consumed by internal/core's calibration:
	// they describe where the framework spends time, not how fast a
	// device is.

	// DispatchWeight scales per-op dispatch cost relative to the device
	// baseline (Python-dispatched dynamic frameworks pay more than a C
	// runtime).
	DispatchWeight float64
	// SessionWeight scales per-inference session overhead (entering the
	// runtime, feeding inputs, fetching outputs).
	SessionWeight float64
	// MemoryFactor multiplies the graph's static memory footprint
	// (runtime bookkeeping, arena slack, graph duplication).
	MemoryFactor float64
	// BaselineBytes is the fixed runtime footprint (library, allocator).
	BaselineBytes int64
}

// Lower produces the device-specific executable graph: it clones the
// model graph, applies the framework's optimization pipeline, and sets
// the execution mode. Quantization and FP16 casting apply only when the
// framework supports them; whether they pay off on the device is the
// latency model's concern (the datatype is on the nodes). Passes run
// through internal/opt's verified wrappers, so a lowering that breaks
// IR invariants panics with the verifier's diagnostics instead of
// reaching the latency model.
func (f *Framework) Lower(g *graph.Graph, dev *device.Device) *graph.Graph {
	out := g.Clone()
	out.Mode = f.Mode

	if f.Opts.Fusion {
		opt.FoldAndFuse(out)
	}
	switch {
	case f.Opts.Quantization && f.quantizeOn(dev):
		opt.QuantizeINT8(out)
	case f.Opts.HalfPrecision && dev.SupportsNative(tensor.FP16):
		opt.CastFP16(out)
	}
	if f.Mode == graph.Static {
		opt.EliminateDead(out)
		out.Freeze()
	}
	return out
}

// quantizeOn decides whether this framework actually deploys INT8 on the
// device. TFLite always quantizes (its deployment pipeline is built
// around it, and the EdgeTPU compiler accepts nothing else); other
// frameworks quantize only when the device executes INT8 natively.
func (f *Framework) quantizeOn(dev *device.Device) bool {
	if !f.Opts.Quantization {
		return false
	}
	if f.Name == "TFLite" {
		return true
	}
	return dev.SupportsNative(tensor.INT8)
}

func (f *Framework) String() string { return f.Name }

var registry = map[string]*Framework{}

func register(f *Framework) *Framework {
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("framework: duplicate %q", f.Name))
	}
	registry[f.Name] = f
	return f
}

// Get returns the framework registered under name.
func Get(name string) (*Framework, bool) {
	f, ok := registry[name]
	return f, ok
}

// MustGet returns the framework or panics.
func MustGet(name string) *Framework {
	f, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("framework: unknown framework %q", name))
	}
	return f
}

// TableIIOrder lists frameworks in the paper's Table II column order.
var TableIIOrder = []string{
	"TensorFlow", "TFLite", "Caffe", "NCSDK", "PyTorch", "TensorRT",
	"DarkNet", "TVM", "Keras",
}

// All returns every registered framework in Table II order, then extras
// by name.
func All() []*Framework {
	var out []*Framework
	seen := map[string]bool{}
	for _, n := range TableIIOrder {
		if f, ok := registry[n]; ok {
			out = append(out, f)
			seen[n] = true
		}
	}
	var extra []string
	for n := range registry {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		out = append(out, registry[n])
	}
	return out
}
