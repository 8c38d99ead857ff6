#ifndef DGF_SERVER_METER_WORLD_H_
#define DGF_SERVER_METER_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/temp_dir.h"
#include "dgf/dgf_index.h"
#include "dgf/splitting_policy.h"
#include "fs/mini_dfs.h"
#include "kv/kv_store.h"
#include "server/query_service.h"
#include "table/table.h"
#include "workload/meter_gen.h"

namespace dgf::server {

/// The served smart-meter world of dgf_serverd and bench_server_throughput:
/// the meter table and the userInfo archive generated into a fresh MiniDfs
/// under a temp dir, reorganized under a DGFIndex over (userId / 50,
/// regionId / 1, time / 1 day) that precomputes sum(powerConsumed) and
/// count(*). Member order is teardown order in reverse: the directory goes
/// last.
struct MeterWorld {
  TempDir dir;
  std::shared_ptr<fs::MiniDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  table::TableDesc user_info;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;

  /// Registers both tables and the index with `service`.
  void Register(QueryService* service) const;
};

/// The world's grid, for servers that index the same data elsewhere (the
/// sharded cluster of bench_server_throughput).
std::vector<core::DimensionPolicy> MeterWorldDims(int64_t start_day);

/// Builds the world for `config` on a DFS with `replication` replica stores.
Result<std::unique_ptr<MeterWorld>> BuildMeterWorld(
    const workload::MeterConfig& config, int replication);

}  // namespace dgf::server

#endif  // DGF_SERVER_METER_WORLD_H_
