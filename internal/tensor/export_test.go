package tensor

import "time"

// DepthwiseShardMACs is the depthwise sharding bar, for tests outside
// the package that count which layers must shard.
const DepthwiseShardMACs = depthwiseShardMACs

// PoolRuns reports, for tests outside the package, how many parallelFor
// calls so far enlisted at least one helper and how many ran entirely on
// their caller.
func PoolRuns() (parallel, serial int64) {
	return poolParallelRuns.Load(), poolSerialRuns.Load()
}

// PoolHandoff reports, for benchmarks outside the package, the pool's
// hand-off counters so far: offers placed, offers taken by a worker still
// spinning, offers retracted, and enlist → helper start summed over the
// offers taken.
func PoolHandoff() (offers, hot, retracted int64, wait time.Duration) {
	return poolEnlistments.Load(), poolHotTakes.Load(), poolRetractions.Load(), time.Duration(poolStartWaitNs.Load())
}
