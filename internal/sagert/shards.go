package sagert

import (
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// planShards decides whether — and how — a run can execute on a sharded
// kernel. It returns the shard count (1 = classic sequential kernel), the
// node->shard map, and the conservative lookahead: the minimum virtual
// latency of any message crossing between shards.
//
// Sharding is transparent (outputs are byte-identical either way), so the
// only question is soundness. A run is forced onto one shard when:
//
//   - the platform has a shared fabric (FabricConcurrency > 0): the fabric
//     is one contention point spanning every node, so no partition of the
//     nodes confines it to a shard;
//   - Sequential mode: the iteration barrier spans every thread;
//   - the derived lookahead is not positive (degenerate platform).
//
// The partition itself comes from sim/shard.Partition, seeded with the
// caller-supplied per-node weights (Options.ShardWeights — typically the
// analytical twin's per-node busy forecast, see twin.ShardWeights) and
// falling back to uniform contiguous bands without them.
func planShards(t *gluegen.Tables, pl machine.Platform, o *Options) (n int, domainOf []int, lookahead sim.Duration) {
	if o.Shards <= 1 || o.Sequential || pl.FabricConcurrency > 0 {
		return 1, nil, 0
	}
	boards := make([]int, t.NumNodes)
	for i := range boards {
		boards[i] = pl.Board(i)
	}
	domainOf, n = shard.Partition(shard.Input{
		Nodes:   t.NumNodes,
		Shards:  o.Shards,
		BoardOf: boards,
		Weight:  o.ShardWeights,
	})
	if n <= 1 {
		return 1, nil, 0
	}
	// Every cross-node message is delivered Intra/InterLatency (plus any
	// injected extra, which only adds) after the send completes, so the
	// minimum latency over cut links bounds how far ahead a shard may run.
	// A board-aligned partition only cuts inter-board links; a partition
	// splitting a board also cuts intra-board ones.
	lookahead = pl.InterLatency
	if shard.SplitsBoard(domainOf, boards) && pl.IntraLatency < lookahead {
		lookahead = pl.IntraLatency
	}
	if lookahead <= 0 {
		return 1, nil, 0
	}
	return n, domainOf, lookahead
}
