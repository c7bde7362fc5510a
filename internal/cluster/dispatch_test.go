package cluster

import "testing"

// TestPipelineConcurrency pins the derivation the front server sizes its
// dispatch loops from: a frame per stage plus one for the hops, never
// more than the hops' credit windows let the chain hold.
func TestPipelineConcurrency(t *testing.T) {
	for _, tc := range []struct{ stages, credits, want int }{
		{3, DefaultCredits, 4},
		{2, DefaultCredits, 3},
		{1, DefaultCredits, 2},
		{3, 1, 3}, // one-frame windows: the chain holds a frame per stage
	} {
		p := &Pipeline{stages: make([]Stage, tc.stages), opts: Options{Credits: tc.credits}}
		if got := p.Concurrency(); got != tc.want {
			t.Errorf("%d stages, credits %d: concurrency %d, want %d", tc.stages, tc.credits, got, tc.want)
		}
	}
}
