package cluster

import "testing"

// TestPipelineConcurrency pins the derivation the front server sizes its
// dispatch loops from: the frames the stages compute at once (what each
// reported in Ready) plus one for the hops, never more than the hops'
// credit windows let the chain hold.
func TestPipelineConcurrency(t *testing.T) {
	for _, tc := range []struct {
		stageConc     []int
		credits, want int
	}{
		{[]int{1, 1, 1}, DefaultCredits, 4},
		{[]int{1, 1}, DefaultCredits, 3},
		{[]int{1}, DefaultCredits, 2},
		{[]int{2, 2, 2}, DefaultCredits, 7},
		{[]int{4, 1, 2}, DefaultCredits, 8}, // stages on unlike devices
		{[]int{1, 1, 1}, 1, 3},              // one-frame windows: the chain holds a frame per stage
		{[]int{2, 2, 2}, 1, 3},              // ... however many loops wait behind them
	} {
		p := &Pipeline{stages: make([]Stage, len(tc.stageConc)), stageConc: tc.stageConc, opts: Options{Credits: tc.credits}}
		if got := p.Concurrency(); got != tc.want {
			t.Errorf("stage concurrency %v, credits %d: concurrency %d, want %d", tc.stageConc, tc.credits, got, tc.want)
		}
	}
}
