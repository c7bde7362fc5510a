package tensor

// DepthwiseShardMACs is the depthwise sharding bar, for tests outside
// the package that count which layers must shard.
const DepthwiseShardMACs = depthwiseShardMACs

// QuantParallelElems and MaxPoolParallelTaps are the activation
// quantizer's and the max-pool's sharding bars, for the same tests.
const (
	QuantParallelElems  = quantParallelElems
	MaxPoolParallelTaps = maxPoolParallelTaps
)

// PoolRuns reports, for tests outside the package, how many parallelFor
// calls so far enlisted at least one helper and how many ran entirely on
// their caller.
func PoolRuns() (parallel, serial int64) {
	return poolParallelRuns.Load(), poolSerialRuns.Load()
}
