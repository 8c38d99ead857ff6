#include "testing/builder_crash_sweep.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/temp_dir.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_index.h"
#include "dgf/dgf_input_format.h"
#include "kv/lsm_kv.h"
#include "server/query_service.h"
#include "table/table.h"
#include "testing/corruption.h"
#include "workload/meter_gen.h"

namespace dgf::testing {
namespace {

/// Crash points the sweep must reach, or the instrumentation has rotted.
constexpr const char* kRequiredPoints[] = {
    "dgf.reorg.after_shard",      "dgf.reorg.after_slices",
    "dgf.build.before_publish",   "dgf.append.before_job",
    "dgf.append.before_publish",  "dgf.append.group.before_flush",
};

constexpr const char* kKvDir = "/kv";
constexpr const char* kDataDir = "/dgf/data";

Status CollectLines(const workload::MeterConfig& config,
                    std::vector<std::string>* out) {
  return workload::ForEachMeterRow(config, [&](const table::Row& row) {
    out->push_back(table::FormatRowText(row));
    return Status::OK();
  });
}

Result<std::shared_ptr<kv::KvStore>> OpenStore(
    const std::shared_ptr<fs::MiniDfs>& dfs) {
  kv::LsmKv::Options options;
  options.dfs = dfs;
  options.dir = kKvDir;
  options.memtable_flush_bytes = 4096;
  options.max_runs = 3;
  DGF_ASSIGN_OR_RETURN(auto store, kv::LsmKv::Open(std::move(options)));
  return std::shared_ptr<kv::KvStore>(std::move(store));
}

exec::JobRunner::Options AppendJob() {
  exec::JobRunner::Options job;
  job.num_reducers = 2;
  job.worker_threads = 1;
  return job;
}

Result<std::map<std::string, std::string>> DumpStore(kv::KvStore* store) {
  std::map<std::string, std::string> out;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace(std::string(it->key()), std::string(it->value()));
  }
  return out;
}

/// Every row reachable from the published index, via full slice scans.
Result<std::vector<std::string>> ScanIndexRows(
    const std::shared_ptr<fs::MiniDfs>& dfs, kv::KvStore* store,
    const table::Schema& schema, uint64_t* record_total) {
  *record_total = 0;
  std::vector<std::string> rows;
  DGF_ASSIGN_OR_RETURN(auto dump, DumpStore(store));
  for (const auto& [key, value] : dump) {
    if (key.empty() || key.front() != core::kGfuKeyPrefix) continue;
    DGF_ASSIGN_OR_RETURN(core::GfuValue gfu, core::GfuValue::Decode(value));
    *record_total += gfu.record_count;
    for (const core::SliceLocation& slice : gfu.slices) {
      DGF_ASSIGN_OR_RETURN(auto reader,
                           core::OpenSliceReader(dfs, slice, schema));
      table::Row row;
      for (;;) {
        DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        rows.push_back(table::FormatRowText(row));
      }
    }
  }
  return rows;
}

Status CompareRows(std::vector<std::string> got,
                   std::vector<std::string> want, const std::string& what) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return Status::OK();
  if (got.size() != want.size()) {
    return Status::Corruption(what + ": " + std::to_string(got.size()) +
                              " rows recovered, oracle has " +
                              std::to_string(want.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return Status::Corruption(what + ": row differs: '" + got[i] +
                                "' vs oracle '" + want[i] + "'");
    }
  }
  return Status::Corruption(what + ": rows differ");
}

/// One seeded world: base table, two direct append batches, one
/// group-commit batch (as text lines), and a post-recovery batch, plus what
/// the workload acknowledged of them.
class BuildCrashWorld : public CrashSweepWorld {
 public:
  static Result<std::unique_ptr<BuildCrashWorld>> Make(uint64_t seed);

  /// The seeded workload: Build, two direct Appends, one QueryService
  /// group-commit append. Stops at the first error; the index handle is
  /// dropped on return (Recover then discards the store too — "the process
  /// died").
  Status Run() override;

  /// Reopens the store and checks the acknowledged-prefix oracle:
  ///   * an interrupted Build publishes nothing;
  ///   * otherwise full slice scans return exactly the base rows plus every
  ///     acknowledged batch, and the batch counter matches the publishes;
  ///   * a retry (re-Build, or a fresh Append) over the crashed state
  ///     succeeds and yields the correct rows.
  Status Recover() override;

  const std::shared_ptr<fs::MiniDfs>& dfs() const { return dfs_; }
  bool built() const { return built_; }

 private:
  BuildCrashWorld() = default;
  core::DgfBuilder::Options BuildOptions() const;

  TempDir dir_;
  std::shared_ptr<fs::MiniDfs> dfs_;
  std::shared_ptr<kv::KvStore> store_;
  workload::MeterConfig base_config_;
  table::TableDesc base_;
  std::vector<table::TableDesc> batches_;              // direct appends
  std::vector<workload::MeterConfig> batch_configs_;
  std::vector<std::string> service_lines_;             // group-commit append
  table::TableDesc recover_;
  workload::MeterConfig recover_config_;
  std::vector<core::DimensionPolicy> dims_;
  // What the workload acknowledged before it stopped.
  bool built_ = false;
  int appends_acked_ = 0;
  bool service_acked_ = false;
};

Result<std::unique_ptr<BuildCrashWorld>> BuildCrashWorld::Make(uint64_t seed) {
  std::unique_ptr<BuildCrashWorld> world(new BuildCrashWorld());
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 0xB01D);

  workload::MeterConfig& config = world->base_config_;
  config.num_users = 10 + static_cast<int64_t>(rng.Uniform(8));
  config.num_regions = 2;
  config.num_days = 2;
  config.readings_per_day = 1;
  config.extra_metrics = 0;
  config.seed = seed ^ 0x5EEDULL;

  world->dir_ = TempDir("dgf_buildcrash_" + std::to_string(seed));
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = world->dir_.string();
  dfs_options.block_size = 8192;
  DGF_ASSIGN_OR_RETURN(world->dfs_, fs::MiniDfs::Open(dfs_options));
  DGF_ASSIGN_OR_RETURN(world->store_, OpenStore(world->dfs_));

  DGF_ASSIGN_OR_RETURN(
      world->base_,
      workload::GenerateMeterTable(world->dfs_, "/w/meter", config,
                                   table::FileFormat::kText,
                                   /*max_file_bytes=*/2048));
  // Every batch extends the time dimension past everything before it.
  int64_t next_day = config.start_day + config.num_days;
  for (int b = 0; b < 2; ++b) {
    workload::MeterConfig batch_config = config;
    batch_config.start_day = next_day;
    batch_config.num_days = 1;
    batch_config.seed = seed ^ (0x10ULL + static_cast<uint64_t>(b));
    next_day += 1;
    DGF_ASSIGN_OR_RETURN(
        table::TableDesc desc,
        workload::GenerateMeterTable(world->dfs_,
                                     "/w/batch" + std::to_string(b),
                                     batch_config, table::FileFormat::kText,
                                     /*max_file_bytes=*/2048));
    world->batches_.push_back(std::move(desc));
    world->batch_configs_.push_back(batch_config);
  }
  workload::MeterConfig service_config = config;
  service_config.start_day = next_day;
  service_config.num_days = 1;
  service_config.seed = seed ^ 0x5E21ULL;
  next_day += 1;
  DGF_RETURN_IF_ERROR(CollectLines(service_config, &world->service_lines_));

  world->recover_config_ = config;
  world->recover_config_.start_day = next_day;
  world->recover_config_.num_days = 1;
  world->recover_config_.seed = seed ^ 0x4ECULL;
  DGF_ASSIGN_OR_RETURN(
      world->recover_,
      workload::GenerateMeterTable(world->dfs_, "/w/recover",
                                   world->recover_config_,
                                   table::FileFormat::kText,
                                   /*max_file_bytes=*/2048));

  world->dims_ = {
      {"userId", table::DataType::kInt64, 0, 4},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate,
       static_cast<double>(config.start_day), 1},
  };
  return world;
}

core::DgfBuilder::Options BuildCrashWorld::BuildOptions() const {
  core::DgfBuilder::Options options;
  options.dims = dims_;
  options.precompute = {"sum(powerConsumed)", "count(*)"};
  options.data_dir = kDataDir;
  options.job.num_reducers = 2;
  options.job.worker_threads = 1;  // crash points are single-threaded by design
  options.split_size = 4096;
  return options;
}

Status BuildCrashWorld::Run() {
  auto built = core::DgfBuilder::Build(dfs_, store_, base_, BuildOptions());
  if (!built.ok()) return built.status();
  built_ = true;
  std::unique_ptr<core::DgfIndex> index = std::move(*built);
  for (const table::TableDesc& batch : batches_) {
    DGF_RETURN_IF_ERROR(core::DgfBuilder::Append(index.get(), batch,
                                                 AppendJob(),
                                                 /*split_size=*/4096)
                            .status());
    ++appends_acked_;
  }
  server::QueryService::Options service_options;
  service_options.dfs = dfs_;
  service_options.max_concurrent = 1;
  service_options.query_worker_threads = 1;
  service_options.split_size = 4096;
  server::QueryService service(std::move(service_options));
  service.RegisterTable(base_);
  service.RegisterDgfIndex(base_.name, index.get());
  DGF_RETURN_IF_ERROR(service.Append(base_.name, service_lines_).status());
  service_acked_ = true;
  return Status::OK();
}

Status BuildCrashWorld::Recover() {
  // Simulate the process dying: drop every in-memory handle, then recover
  // from disk alone.
  store_.reset();
  DGF_ASSIGN_OR_RETURN(store_, OpenStore(dfs_));

  std::vector<std::string> expected;
  DGF_RETURN_IF_ERROR(CollectLines(base_config_, &expected));

  if (!built_) {
    // An interrupted build must publish nothing at all.
    DGF_ASSIGN_OR_RETURN(auto dump, DumpStore(store_.get()));
    if (!dump.empty()) {
      return Status::Corruption("unpublished build left " +
                                std::to_string(dump.size()) +
                                " keys in the store");
    }
    // Recovery liveness: a retry over the crashed state (same store, same
    // data_dir holding the dead attempt's orphan slice files) must succeed.
    DGF_ASSIGN_OR_RETURN(
        auto index,
        core::DgfBuilder::Build(dfs_, store_, base_, BuildOptions()));
    uint64_t record_total = 0;
    DGF_ASSIGN_OR_RETURN(auto rows, ScanIndexRows(dfs_, store_.get(),
                                                  base_.schema, &record_total));
    DGF_RETURN_IF_ERROR(CompareRows(rows, expected, "rebuilt index"));
    if (record_total != expected.size()) {
      return Status::Corruption("rebuilt record_count mismatch");
    }
    return Status::OK();
  }

  for (int b = 0; b < appends_acked_; ++b) {
    DGF_RETURN_IF_ERROR(
        CollectLines(batch_configs_[static_cast<size_t>(b)], &expected));
  }
  if (service_acked_) {
    expected.insert(expected.end(), service_lines_.begin(),
                    service_lines_.end());
  }

  uint64_t record_total = 0;
  DGF_ASSIGN_OR_RETURN(auto rows, ScanIndexRows(dfs_, store_.get(),
                                                base_.schema, &record_total));
  DGF_RETURN_IF_ERROR(CompareRows(rows, expected, "recovered index"));
  if (record_total != expected.size()) {
    return Status::Corruption("recovered record_count " +
                              std::to_string(record_total) + " != oracle " +
                              std::to_string(expected.size()));
  }
  // The batch counter must reflect exactly the acknowledged publishes:
  // Build publishes "1", every acknowledged append bumps it by one, and the
  // crashed append must not have.
  const int publishes = appends_acked_ + (service_acked_ ? 1 : 0);
  auto batch_key = store_->Get(core::kMetaBatchKey);
  if (!batch_key.ok() || *batch_key != std::to_string(1 + publishes)) {
    return Status::Corruption(
        "batch counter " + (batch_key.ok() ? *batch_key : "absent") +
        " != expected " + std::to_string(1 + publishes));
  }

  // Recovery liveness: a fresh append over the crashed state (reclaiming any
  // orphan slice files of the dead attempt) must succeed and be exact.
  DGF_ASSIGN_OR_RETURN(auto index,
                       core::DgfIndex::Open(dfs_, store_, base_.schema));
  DGF_RETURN_IF_ERROR(core::DgfBuilder::Append(index.get(), recover_,
                                               AppendJob(), /*split_size=*/4096)
                          .status());
  DGF_RETURN_IF_ERROR(CollectLines(recover_config_, &expected));
  DGF_ASSIGN_OR_RETURN(rows, ScanIndexRows(dfs_, store_.get(), base_.schema,
                                           &record_total));
  DGF_RETURN_IF_ERROR(CompareRows(rows, expected, "post-recovery append"));
  return Status::OK();
}

/// Post-crash truncation: shorten an orphan slice file of the dead build
/// attempt and require that (a) nothing was published and (b) the retry
/// still succeeds — a truncated in-progress build never publishes.
Status RunTruncationSchedule(uint64_t seed) {
  DGF_ASSIGN_OR_RETURN(auto world, BuildCrashWorld::Make(seed));
  CrashPoints::Arm("dgf.build.before_publish", 1);
  const Status ran = world->Run();
  const bool fired = CrashPoints::Fired();
  CrashPoints::Disarm();
  if (!ran.ok() && !CrashPoints::IsInjectedCrash(ran)) return ran;
  if (!fired || world->built()) {
    return Status::Corruption("dgf.build.before_publish did not fire");
  }
  // The dead attempt's slice files are on the DFS; mangle one.
  const auto orphans = world->dfs()->ListFiles(std::string(kDataDir) + "/");
  if (orphans.empty()) {
    return Status::Corruption("crashed build left no slice files to truncate");
  }
  const fs::FileStatus& victim = orphans.front();
  DGF_RETURN_IF_ERROR(
      TruncateFile(world->dfs(), victim.path, victim.length / 2));
  return world->Recover();
}

}  // namespace

Result<CrashSweepReport> RunBuilderCrashSweep(
    const BuilderCrashSweepOptions& options) {
  CrashSweep sweep;
  sweep.required_points.assign(std::begin(kRequiredPoints),
                               std::end(kRequiredPoints));
  sweep.max_occurrences_per_point = options.max_occurrences_per_point;
  sweep.repro = " [repro: dgf_difftest --builder-crash-sweep --seed=" +
                std::to_string(options.seed) + "]";
  sweep.verbose = options.verbose;
  sweep.make_world = [&]() -> Result<std::unique_ptr<CrashSweepWorld>> {
    DGF_ASSIGN_OR_RETURN(auto world, BuildCrashWorld::Make(options.seed));
    return std::unique_ptr<CrashSweepWorld>(std::move(world));
  };
  DGF_ASSIGN_OR_RETURN(CrashSweepReport report, RunCrashSweep(sweep));

  ++report.schedules_run;
  if (Status truncation = RunTruncationSchedule(options.seed);
      !truncation.ok()) {
    report.failures.push_back("truncation schedule: " + truncation.ToString() +
                              sweep.repro);
  }
  return report;
}

}  // namespace dgf::testing
