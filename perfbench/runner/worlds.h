#ifndef PERFBENCH_RUNNER_WORLDS_H_
#define PERFBENCH_RUNNER_WORLDS_H_

// The worlds the workloads run against: a single node (meter + userinfo on
// a private MiniDfs, a DGF index, a QueryService, optionally a wire Server)
// and the in-process sharded cluster. Each records its own set-up time.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dgf/dgf_index.h"
#include "dgf/splitting_policy.h"
#include "runner/bench.h"
#include "fs/mini_dfs.h"
#include "kv/kv_store.h"
#include "query/executor.h"
#include "server/query_service.h"
#include "server/server.h"
#include "table/table.h"
#include "testing/shard_sweep.h"
#include "workload/meter_gen.h"

namespace perfbench {

/// The parts of one set-up in process CPU seconds (every thread); their sum
/// is setup_s. CPU time, unlike wall time, does not grow when other tenants
/// of the host take the cores, so it shows set-up work rather than host
/// load. The wall time is kept for the record.
struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
  double serve_start_s = 0;
  double wall_s = 0;
};

/// Removes a directory tree when destroyed.
struct ScopedDir {
  std::string path;
  ~ScopedDir();
};

/// Grid policy of every workload: userId interval 50, one region per cell,
/// one day per cell.
std::vector<dgf::core::DimensionPolicy> MeterGrid(
    const dgf::workload::MeterConfig& config);

/// Single-node world. Members are destroyed in reverse order: the server
/// stops before the service, the service before the index, the index
/// before the DFS, and the directory goes last.
struct NodeWorld {
  ScopedDir dir;
  dgf::workload::MeterConfig config;
  std::shared_ptr<dgf::fs::MiniDfs> dfs;
  dgf::table::TableDesc meter;
  dgf::table::TableDesc user_info;
  std::shared_ptr<dgf::kv::KvStore> store;
  std::unique_ptr<dgf::core::DgfIndex> dgf;
  std::unique_ptr<dgf::server::QueryService> service;
  std::unique_ptr<dgf::server::Server> server;
  SetupTimes times;
};

/// Generates the tables, builds the index and starts the QueryService
/// (plus a loopback TCP Server when `serve`). `dir` must not exist.
Result<std::unique_ptr<NodeWorld>> BuildNodeWorld(
    const dgf::workload::MeterConfig& config, const std::string& dir,
    bool serve);

/// The 2-shard cluster behind the coordinator, set up by one
/// ShardedCluster::Start (generation, per-shard index builds and servers
/// are not separable from outside that call).
struct ClusterWorld {
  std::unique_ptr<dgf::testing::ShardedCluster> cluster;
  SetupTimes times;
};

Result<std::unique_ptr<ClusterWorld>> StartClusterWorld(
    const dgf::workload::MeterConfig& config, int shards);

/// Index-free answers: the base tables generated into their own DFS and a
/// FullScan-only executor over them (used when the world under test has no
/// base table of its own, i.e. the sharded cluster).
struct OracleWorld {
  ScopedDir dir;
  std::shared_ptr<dgf::fs::MiniDfs> dfs;
  std::unique_ptr<dgf::query::QueryExecutor> executor;
};

Result<std::unique_ptr<OracleWorld>> BuildOracleWorld(
    const dgf::workload::MeterConfig& config, const std::string& dir);

/// FullScan executor over a node world's own base tables.
std::unique_ptr<dgf::query::QueryExecutor> MakeOracleExecutor(
    const NodeWorld& world);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORLDS_H_
