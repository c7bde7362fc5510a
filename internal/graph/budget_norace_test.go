//go:build !race

package graph_test

// zooBudgetGF is the compute budget (GFLOPs per forward pass) of the
// zoo-wide executor tests: the same 0.2 internal/model's zoo tests use.
const zooBudgetGF = 0.2
