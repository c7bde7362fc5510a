//go:build race

package graph_test

// zooBudgetGF is the compute budget (GFLOPs per forward pass) of the
// zoo-wide executor tests; instrumented numeric kernels run ~10x slower,
// so the race build keeps to the smallest models.
const zooBudgetGF = 0.05
