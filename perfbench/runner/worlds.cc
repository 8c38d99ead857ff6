#include "runner/worlds.h"

#include <filesystem>
#include <system_error>

#include "dgf/dgf_builder.h"
#include "kv/mem_kv.h"

namespace perfbench {

namespace {

/// Block size of the single-node DFS: small enough that the scan-wide world
/// spans many splits (as bench_server_throughput's world does).
constexpr uint64_t kNodeBlockBytes = 256 * 1024;

Result<std::shared_ptr<dgf::fs::MiniDfs>> OpenDfs(const std::string& dir) {
  std::error_code ec;
  if (std::filesystem::exists(dir, ec)) {
    return Status::AlreadyExists("world directory exists: " + dir);
  }
  dgf::fs::MiniDfs::Options options;
  options.root_dir = dir;
  options.block_size = kNodeBlockBytes;
  return dgf::fs::MiniDfs::Open(options);
}

/// Times the parts of one set-up: CPU seconds per part, wall seconds for the
/// whole.
class SetupClock {
 public:
  /// CPU seconds since construction or the previous Lap.
  double Lap() {
    const double now = ProcessCpuSeconds();
    const double part = now - cpu_;
    cpu_ = now;
    return part;
  }
  double WallSeconds() const { return NowSeconds() - wall_start_; }

 private:
  double cpu_ = ProcessCpuSeconds();
  double wall_start_ = NowSeconds();
};

}  // namespace

ScopedDir::~ScopedDir() {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::vector<dgf::core::DimensionPolicy> MeterGrid(
    const dgf::workload::MeterConfig& config) {
  return {
      {"userId", dgf::table::DataType::kInt64, 0, 50},
      {"regionId", dgf::table::DataType::kInt64, 0, 1},
      {"time", dgf::table::DataType::kDate,
       static_cast<double>(config.start_day), 1},
  };
}

Result<std::unique_ptr<NodeWorld>> BuildNodeWorld(
    const dgf::workload::MeterConfig& config, const std::string& dir,
    bool serve) {
  auto world = std::make_unique<NodeWorld>();
  world->config = config;
  DGF_ASSIGN_OR_RETURN(world->dfs, OpenDfs(dir));
  world->dir.path = dir;

  SetupClock clock;
  DGF_ASSIGN_OR_RETURN(
      world->meter,
      dgf::workload::GenerateMeterTable(world->dfs, "/warehouse/meter",
                                        config));
  DGF_ASSIGN_OR_RETURN(world->user_info,
                       dgf::workload::GenerateUserInfoTable(
                           world->dfs, "/warehouse/userinfo", config));
  world->times.generate_s = clock.Lap();

  dgf::core::DgfBuilder::Options build;
  build.dims = MeterGrid(config);
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/warehouse/dgf";
  world->store = std::make_shared<dgf::kv::MemKv>();
  DGF_ASSIGN_OR_RETURN(world->dgf,
                       dgf::core::DgfBuilder::Build(world->dfs, world->store,
                                                    world->meter, build));
  world->times.build_s = clock.Lap();

  // QueryService defaults throughout: its executor is the one the serving
  // path uses.
  dgf::server::QueryService::Options service_options;
  service_options.dfs = world->dfs;
  world->service =
      std::make_unique<dgf::server::QueryService>(service_options);
  world->service->RegisterTable(world->meter);
  world->service->RegisterTable(world->user_info);
  world->service->RegisterDgfIndex(world->meter.name, world->dgf.get());
  if (serve) {
    dgf::server::Server::Options server_options;
    server_options.service = world->service.get();
    server_options.port = 0;
    DGF_ASSIGN_OR_RETURN(world->server,
                         dgf::server::Server::Start(server_options));
  }
  world->times.serve_start_s = clock.Lap();
  world->times.wall_s = clock.WallSeconds();
  return world;
}

Result<std::unique_ptr<ClusterWorld>> StartClusterWorld(
    const dgf::workload::MeterConfig& config, int shards) {
  auto world = std::make_unique<ClusterWorld>();
  dgf::testing::ShardedCluster::Options options;
  options.config = config;
  options.dims = MeterGrid(config);
  options.num_shards = shards;
  options.with_user_info = true;  // the join template needs the archive
  SetupClock clock;
  DGF_ASSIGN_OR_RETURN(world->cluster,
                       dgf::testing::ShardedCluster::Start(options));
  world->times.serve_start_s = clock.Lap();
  world->times.wall_s = clock.WallSeconds();
  return world;
}

Result<std::unique_ptr<OracleWorld>> BuildOracleWorld(
    const dgf::workload::MeterConfig& config, const std::string& dir) {
  auto world = std::make_unique<OracleWorld>();
  DGF_ASSIGN_OR_RETURN(world->dfs, OpenDfs(dir));
  world->dir.path = dir;
  DGF_ASSIGN_OR_RETURN(
      auto meter, dgf::workload::GenerateMeterTable(world->dfs, "/oracle/meter",
                                                    config));
  DGF_ASSIGN_OR_RETURN(auto user_info,
                       dgf::workload::GenerateUserInfoTable(
                           world->dfs, "/oracle/userinfo", config));
  dgf::query::QueryExecutor::Options options;
  options.dfs = world->dfs;
  world->executor = std::make_unique<dgf::query::QueryExecutor>(options);
  world->executor->RegisterTable(meter);
  world->executor->RegisterTable(user_info);
  return world;
}

std::unique_ptr<dgf::query::QueryExecutor> MakeOracleExecutor(
    const NodeWorld& world) {
  dgf::query::QueryExecutor::Options options;
  options.dfs = world.dfs;
  auto executor = std::make_unique<dgf::query::QueryExecutor>(options);
  executor->RegisterTable(world.meter);
  executor->RegisterTable(world.user_info);
  return executor;
}

}  // namespace perfbench
