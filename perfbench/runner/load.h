#ifndef PERFBENCH_RUNNER_LOAD_H_
#define PERFBENCH_RUNNER_LOAD_H_

// Closed-loop load: every client owns one connection (or, in process, one
// executor caller) and sends its next request only after the reply to the
// previous one. Every answer is checked against the pool's oracle answer.

#include <functional>
#include <string>
#include <vector>

#include "coord/shard_map.h"
#include "runner/bench.h"
#include "query/executor.h"

namespace perfbench {

/// One wire query client. `tracer` null = untraced. With `shard_map` and
/// `shard_ports` set (traced cluster runs), each front query is followed by
/// its ShardMap::Restrict-ed sub-queries sent straight to the owning shard
/// servers, one after another, as `shard_direct` spans.
struct WireClientOptions {
  int port = 0;
  const std::vector<PoolQuery>* pool = nullptr;
  /// Position in the pool this client starts replaying from.
  size_t first_query = 0;
  /// NowSeconds() after which no new request is sent.
  double stop_at = 0;
  /// > 0: send at most this many queries (warm-up passes).
  size_t max_queries = 0;
  Tracer* tracer = nullptr;
  const dgf::coord::ShardMap* shard_map = nullptr;
  std::vector<int> shard_ports;
};

LoadTally RunWireQueryClient(const WireClientOptions& options);

/// Runs `clients` wire query clients on their own threads until `stop_at`
/// and merges their tallies; `window_s` is first send to last reply.
LoadTally RunWireQueryClients(WireClientOptions options, int clients);

/// Sends append batches back to back until `stop_at` (or `max_batches` > 0
/// batches), one whole new day per batch starting at `first_day`. `append`
/// returns the acknowledged row count or the failure.
using AppendFn =
    std::function<Result<uint64_t>(const std::vector<std::string>& rows)>;

LoadTally RunAppender(const AppendFn& append,
                      const dgf::workload::MeterConfig& config,
                      int64_t first_day, double stop_at, int max_batches);

/// APPEND over one wire connection to `port`.
AppendFn WireAppend(int port);

/// One in-process caller of `executor` replaying `pool` until `stop_at`
/// (or `max_queries` > 0 queries). No parse, no socket.
LoadTally RunInProcessQueries(dgf::query::QueryExecutor* executor,
                              const std::vector<PoolQuery>& pool,
                              double stop_at, size_t max_queries);

/// Empty when `answer` equals the oracle answer of `entry`.
std::string CheckAnswer(const PoolQuery& entry,
                        const dgf::query::QueryResult& answer);

/// Runs `query` (a count(*)) through a wire connection and returns the
/// count.
Result<int64_t> WireCount(int port, const dgf::query::Query& query);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_LOAD_H_
