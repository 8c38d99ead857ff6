#include "server/meter_world.h"

#include "dgf/dgf_builder.h"
#include "kv/mem_kv.h"

namespace dgf::server {

void MeterWorld::Register(QueryService* service) const {
  service->RegisterTable(meter);
  service->RegisterTable(user_info);
  service->RegisterDgfIndex(meter.name, dgf.get());
}

std::vector<core::DimensionPolicy> MeterWorldDims(int64_t start_day) {
  return {
      {"userId", table::DataType::kInt64, 0, 50},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate, static_cast<double>(start_day), 1},
  };
}

Result<std::unique_ptr<MeterWorld>> BuildMeterWorld(
    const workload::MeterConfig& config, int replication) {
  auto world = std::make_unique<MeterWorld>();
  world->dir = TempDir("dgf_meter_world");
  world->config = config;

  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = world->dir.string();
  dfs_options.block_size = 256 * 1024;
  dfs_options.replication = replication;
  DGF_ASSIGN_OR_RETURN(world->dfs, fs::MiniDfs::Open(dfs_options));

  DGF_ASSIGN_OR_RETURN(
      world->meter,
      workload::GenerateMeterTable(world->dfs, "/warehouse/meter", config));
  DGF_ASSIGN_OR_RETURN(world->user_info,
                       workload::GenerateUserInfoTable(
                           world->dfs, "/warehouse/userinfo", config));

  core::DgfBuilder::Options build;
  build.dims = MeterWorldDims(config.start_day);
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/warehouse/dgf";
  world->store = std::make_shared<kv::MemKv>();
  DGF_ASSIGN_OR_RETURN(world->dgf,
                       core::DgfBuilder::Build(world->dfs, world->store,
                                               world->meter, build));
  return world;
}

}  // namespace dgf::server
