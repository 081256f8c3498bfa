package parallel

import (
	randv2 "math/rand/v2"

	"drnet/internal/mathx"
)

// ShardedRNG derives an independent random stream per shard from one
// root seed. Shard i's stream is a PCG generator seeded with
// (root seed, mix(i)), so the variates consumed by shard i are a pure
// function of (seed, i) — independent of worker count, scheduling and
// of how many draws other shards make. That is what makes parallel
// bootstrap resampling and parallel Monte Carlo runs bit-identical to
// their sequential counterparts.
//
// A ShardedRNG is immutable and safe for concurrent use; the *mathx.RNG
// values it hands out are not, so each shard must keep its own.
type ShardedRNG struct {
	seed uint64
}

// NewShardedRNG returns a sharded RNG rooted at seed.
func NewShardedRNG(seed int64) *ShardedRNG {
	return &ShardedRNG{seed: uint64(seed)}
}

// Shard returns a fresh RNG for shard i. Calling Shard(i) twice returns
// two generators that produce identical sequences.
func (s *ShardedRNG) Shard(i int) *mathx.RNG {
	return mathx.NewPCG(s.seed, streamID(i))
}

// PCG returns a fresh copy of the generator Shard(i) wraps, for a
// caller that draws straight off the stream instead of through
// math/rand's Source interface: PCG(i).Uint64() yields the values
// Shard(i).Uint64() does.
func (s *ShardedRNG) PCG(i int) *randv2.PCG {
	return randv2.NewPCG(s.seed, streamID(i))
}

// streamID scatters consecutive shard indices across the stream-id
// space so adjacent shards do not get adjacent PCG stream constants.
// (SplitMix64 is the finalizer recommended for seeding PCG-family
// generators; it is a bijection, so distinct shards keep distinct
// streams.)
func streamID(i int) uint64 {
	return mathx.SplitMix64(uint64(i) + 0x9e3779b97f4a7c15)
}
