#ifndef PERFBENCH_RUNNER_LAYERS_H_
#define PERFBENCH_RUNNER_LAYERS_H_

// Traced in-process replay: each query is driven through the public entry
// points of the layers one at a time, each call wrapped in a span:
//
//   replay (root)
//     parse       query::ParseQuery on the SQL text
//     execute     QueryExecutor::Execute (the whole engine); attrs carry its
//                 QueryStats and the DFS pread/byte deltas
//     lookup      DgfIndex::Pin + DgfIndex::Lookup on a second handle over
//                 the same KV store, whose decoded-GFU cache sees the same
//                 lookups as the executor's index and so mirrors its state
//     slice_read  CoalesceSlices + PlanSlicedSplits + SliceRecordReader
//                 over the lookup's slices, draining every row
//
// The engine's own time (job set-up, map/shuffle/reduce, row text round
// trip) is execute - lookup - slice_read of the same request.

#include <memory>
#include <vector>

#include "runner/bench.h"
#include "testing/shard_sweep.h"

namespace perfbench {

struct LayerReplay {
  dgf::query::QueryExecutor* executor = nullptr;
  /// Second handle over the executor index's store (DgfIndex::Open).
  dgf::core::DgfIndex* shadow = nullptr;
  std::shared_ptr<dgf::fs::MiniDfs> dfs;
  dgf::table::Schema meter_schema;
  dgf::table::Schema user_info_schema;
  Tracer* tracer = nullptr;
};

/// Replays pool queries until `stop_at` (or `max_queries` > 0 queries);
/// every executor answer is checked. query_ms holds the whole
/// traced iteration, so the tally's rate is the traced rate.
LoadTally RunLayerReplay(const LayerReplay& replay,
                         const std::vector<PoolQuery>& pool, double stop_at,
                         size_t max_queries);

/// Runs DgfIndex::Pin + Lookup for every pool query on `index` (warms a
/// shadow handle's cache to the state the serving index is in).
Status WarmLookups(dgf::core::DgfIndex* index,
                   const std::vector<PoolQuery>& pool);

/// Cluster replay: per pool query a `parse` span, then one `execute` span
/// per shard the query's ShardMap::Restrict-ed sub-query reaches, run on
/// that shard's own executor. Attrs carry QueryStats, the shard DFS deltas
/// and the shard registry's GFU classification deltas. Sub-query answers
/// are partial and are not checked here (the front answers are).
LoadTally RunClusterReplay(dgf::testing::ShardedCluster* cluster,
                           const std::vector<PoolQuery>& pool,
                           Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_LAYERS_H_
