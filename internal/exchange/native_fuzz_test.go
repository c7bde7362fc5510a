package exchange_test

import (
	"strings"
	"testing"

	"edgebench/internal/exchange"
	"edgebench/internal/model"
	"edgebench/internal/nn"
)

// FuzzImport feeds arbitrary bytes (seeded with real exports) into the
// decoder: it must never panic, and anything it accepts must be a valid
// graph that re-exports cleanly.
func FuzzImport(f *testing.F) {
	for _, name := range []string{"CifarNet", "MobileNet-v2", "LSTM-Classifier"} {
		g := model.MustGet(name).Build(nn.Options{})
		data, err := exchange.Export(g, exchange.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(container(`{"version":3,"name":"x","mode":"static","input_shape":[1,2,2],`+
		`"nodes":[{"name":"input","kind":"input","inputs":[]}],"output":0}`, nil))
	f.Add(container("{}", nil))
	f.Add([]byte("]["))
	// A weighted export cut inside its parameter section, and one whose
	// first reference points past the section's end.
	weighted, err := exchange.Export(smallNet(), exchange.Options{IncludeWeights: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(weighted[:len(weighted)-7])
	f.Add(editHeader(f, weighted, func(s string) string {
		return strings.Replace(s, `"weights":{"off":0`, `"weights":{"off":99999`, 1)
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := exchange.Import(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		if _, err := exchange.Export(g, exchange.Options{}); err != nil {
			t.Fatalf("accepted graph fails to re-export: %v", err)
		}
	})
}
