// Benchmark runner: runs one workload against a freshly built world and
// writes the raw measurements (latency samples, tallies, set-up times,
// counter deltas) as JSON, plus the spans of a traced run as JSON lines.
// perfbench/run.py builds this runner, runs it and turns the raw result into
// the benchmark's metrics.
//
//   perfbench_runner --workload=serve_point|scan_wide|ingest_sharded
//                    --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR --out=RAW.json [--spans=SPANS.jsonl]
//
// Exits 1 on a set-up error, 3 when any answer was wrong.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "runner/bench.h"
#include "runner/layers.h"
#include "runner/load.h"
#include "runner/worlds.h"

namespace perfbench {
namespace {

using dgf::workload::MeterQueryKind;
using dgf::workload::Selectivity;

constexpr double kForever = std::numeric_limits<double>::infinity();
/// Entries of the decoded-GFU cache (ShardedLruCache's default capacity).
constexpr double kGfuCacheCapacity = 16384;
/// Append batches sent back to back after the query window on the
/// single-node workloads (a fixed count, so every run grows the index by
/// the same amount).
constexpr int kAppendPhaseBatches = 40;
/// Set-up repetitions per workload (a fixed count, so the work a run does
/// does not depend on its timing): about a second of set-up each, so the
/// median rests on many samples when the world is small.
constexpr int kServePointSetupReps = 100;
constexpr int kScanWideSetupReps = 3;
constexpr int kIngestShardedSetupReps = 10;

const std::vector<MeterQueryKind> kAllKinds = {
    MeterQueryKind::kAggregation, MeterQueryKind::kGroupBy,
    MeterQueryKind::kJoin, MeterQueryKind::kPartial};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out;
  std::string spans;
};

/// Everything a run measured; written out by WriteRaw.
struct RunRecord {
  int nproc = 1;
  int query_clients = 0;
  dgf::workload::MeterConfig config;
  int shards = 1;
  double gfus = 0;
  size_t distinct_queries = 0;
  std::vector<SetupTimes> setups;
  double oracle_s = 0;
  /// Warm-up pass: answers checked, latencies discarded.
  LoadTally warmup;
  /// Untraced query window plus the appends (end-to-end figures).
  LoadTally load;
  /// trace=1: the traced window and the in-process layer replay.
  LoadTally traced;
  LoadTally replay;
  /// STATS counter deltas over the append window.
  std::map<std::string, double> append_stats;
  int64_t append_expected_rows = 0;
  int64_t append_counted_rows = -1;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

dgf::workload::MeterConfig Config(int64_t users, int days, int64_t regions,
                                  uint64_t seed) {
  dgf::workload::MeterConfig config;
  config.num_users = users;
  config.num_days = days;
  config.num_regions = regions;
  config.extra_metrics = 2;
  config.seed = seed;
  return config;
}

int Clients(int wanted, int nproc) { return std::max(1, std::min(wanted, nproc)); }

std::string WorldDir(const Flags& flags, const std::string& name) {
  return (std::filesystem::path(flags.work_dir) / name).string();
}

/// Builds the world `reps` times; set-up time is reported as the median.
/// Keeps the last world.
template <typename World, typename BuildFn>
Result<std::unique_ptr<World>> SetUpRepeatedly(int reps, RunRecord* record,
                                               BuildFn build) {
  std::unique_ptr<World> world;
  for (int rep = 0; rep < reps; ++rep) {
    world.reset();  // tear the previous one down first
    DGF_ASSIGN_OR_RETURN(world, build(rep));
    record->setups.push_back(world->times);
  }
  return world;
}

uint64_t SumBytesWritten(dgf::testing::ShardedCluster* cluster) {
  uint64_t total = 0;
  for (int i = 0; i < cluster->num_shards(); ++i) {
    total += cluster->shard_dfs(i)->TotalBytesWritten();
  }
  return total;
}

std::vector<std::pair<std::string, double>> SumShardStats(
    dgf::testing::ShardedCluster* cluster) {
  std::map<std::string, double> sum;
  for (int i = 0; i < cluster->num_shards(); ++i) {
    for (const auto& [name, value] : cluster->shard_service(i)->StatsSnapshot()) {
      sum[name] += value;
    }
  }
  return {sum.begin(), sum.end()};
}

/// Folds an append tally into the record's load tally.
void AddAppends(const LoadTally& appends, RunRecord* record) {
  record->load.Merge(appends);
  record->load.append_window_s += appends.append_window_s;
  record->load.dfs_bytes_written += appends.dfs_bytes_written;
  record->append_expected_rows += static_cast<int64_t>(appends.rows_acked);
}

// ---------------------------------------------------------------------------
// serve_point: 4 wire clients, point queries, tiny world.

Status RunServePoint(const Flags& flags, Tracer* tracer, RunRecord* record) {
  record->config = Config(200, 5, 5, flags.seed);
  record->query_clients = Clients(4, record->nproc);
  DGF_ASSIGN_OR_RETURN(
      auto world, SetUpRepeatedly<NodeWorld>(
                      kServePointSetupReps, record, [&](int rep) {
                        return BuildNodeWorld(
                            record->config,
                            WorldDir(flags, "node" + std::to_string(rep)),
                            /*serve=*/true);
                      }));
  DGF_ASSIGN_OR_RETURN(uint64_t gfus, world->dgf->NumGfus());
  record->gfus = static_cast<double>(gfus);
  const int port = world->server->port();

  std::vector<PoolQuery> pool =
      MakeQueryPool(record->config, kAllKinds, {Selectivity::kPoint}, 16);
  record->distinct_queries = pool.size();
  const double oracle_start = NowSeconds();
  DGF_RETURN_IF_ERROR(ComputeOracle(MakeOracleExecutor(*world).get(), &pool));
  record->oracle_s = NowSeconds() - oracle_start;

  WireClientOptions client;
  client.port = port;
  client.pool = &pool;
  client.stop_at = kForever;
  client.max_queries = pool.size() / record->query_clients + 1;
  record->warmup = RunWireQueryClients(client, record->query_clients);
  ResetPeakRss();  // peak_rss_mb covers the measured windows only
  client.max_queries = 0;

  const double window = flags.trace ? flags.seconds / 2 : flags.seconds;
  client.stop_at = NowSeconds() + window;
  record->load = RunWireQueryClients(client, record->query_clients);
  if (flags.trace) {
    client.stop_at = NowSeconds() + window;
    client.tracer = tracer;
    record->traced = RunWireQueryClients(client, record->query_clients);
    DGF_ASSIGN_OR_RETURN(auto shadow,
                         dgf::core::DgfIndex::Open(world->dfs, world->store,
                                                   world->meter.schema));
    DGF_RETURN_IF_ERROR(WarmLookups(shadow.get(), pool));
    LayerReplay replay{world->service->executor(), shadow.get(), world->dfs,
                       world->meter.schema, world->user_info.schema, tracer};
    record->replay = RunLayerReplay(replay, pool, kForever, pool.size());
  }

  const int64_t first_day = record->config.start_day + record->config.num_days;
  const auto stats0 = world->service->StatsSnapshot();
  const uint64_t written0 = world->dfs->TotalBytesWritten();
  LoadTally appends = RunAppender(WireAppend(port), record->config, first_day,
                                  kForever, kAppendPhaseBatches);
  appends.dfs_bytes_written = world->dfs->TotalBytesWritten() - written0;
  record->append_stats =
      StatsDelta(stats0, world->service->StatsSnapshot());
  AddAppends(appends, record);
  DGF_ASSIGN_OR_RETURN(record->append_counted_rows,
                       WireCount(port, AppendedDaysCount(
                                           first_day, appends.append_days)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// scan_wide: one in-process caller, 5% / 12% queries, GFUs 4x the cache.

Status RunScanWide(const Flags& flags, Tracer* tracer, RunRecord* record) {
  record->config = Config(10000, 30, 11, flags.seed);
  record->query_clients = 1;
  DGF_ASSIGN_OR_RETURN(
      auto world, SetUpRepeatedly<NodeWorld>(
                      kScanWideSetupReps, record, [&](int rep) {
                        return BuildNodeWorld(
                            record->config,
                            WorldDir(flags, "node" + std::to_string(rep)),
                            /*serve=*/false);
                      }));
  DGF_ASSIGN_OR_RETURN(uint64_t gfus, world->dgf->NumGfus());
  record->gfus = static_cast<double>(gfus);
  dgf::query::QueryExecutor* executor = world->service->executor();

  std::vector<PoolQuery> pool = MakeQueryPool(
      record->config, kAllKinds,
      {Selectivity::kFivePercent, Selectivity::kTwelvePercent}, 3);
  record->distinct_queries = pool.size();
  const double oracle_start = NowSeconds();
  DGF_RETURN_IF_ERROR(ComputeOracle(MakeOracleExecutor(*world).get(), &pool));
  record->oracle_s = NowSeconds() - oracle_start;

  record->warmup = RunInProcessQueries(executor, pool, kForever, 8);
  ResetPeakRss();  // peak_rss_mb covers the measured windows only
  const double window = flags.trace ? flags.seconds / 2 : flags.seconds;
  record->load =
      RunInProcessQueries(executor, pool, NowSeconds() + window, 0);
  if (flags.trace) {
    // Both caches start cold and then see the same lookups, so the shadow
    // handle's hits and misses track the executor's.
    world->dgf->InvalidateCache();
    DGF_ASSIGN_OR_RETURN(auto shadow,
                         dgf::core::DgfIndex::Open(world->dfs, world->store,
                                                   world->meter.schema));
    LayerReplay replay{executor, shadow.get(), world->dfs,
                       world->meter.schema, world->user_info.schema, tracer};
    record->traced =
        RunLayerReplay(replay, pool, NowSeconds() + window, 0);
  }

  const int64_t first_day = record->config.start_day + record->config.num_days;
  dgf::server::QueryService* service = world->service.get();
  const auto stats0 = service->StatsSnapshot();
  const uint64_t written0 = world->dfs->TotalBytesWritten();
  LoadTally appends = RunAppender(
      [service](const std::vector<std::string>& rows) {
        return service->Append("meterdata", rows);
      },
      record->config, first_day, kForever, kAppendPhaseBatches);
  appends.dfs_bytes_written = world->dfs->TotalBytesWritten() - written0;
  record->append_stats = StatsDelta(stats0, service->StatsSnapshot());
  AddAppends(appends, record);
  DGF_ASSIGN_OR_RETURN(
      auto counted,
      executor->Execute(AppendedDaysCount(first_day, appends.append_days)));
  if (counted.rows.size() != 1) {
    return Status::Internal("count(*) did not return one row");
  }
  record->append_counted_rows = counted.rows[0][0].int64();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ingest_sharded: 3 wire query clients + 1 appender through the coordinator.

/// Distinct non-empty grid cells of the generated data: the GFU count the
/// shards' indexes hold between them.
Result<double> CountGridCells(const dgf::workload::MeterConfig& config) {
  std::set<std::tuple<int64_t, int64_t, int64_t>> cells;
  DGF_RETURN_IF_ERROR(dgf::workload::ForEachMeterRow(
      config, [&](const dgf::table::Row& row) {
        cells.emplace(row[0].int64() / 50, row[1].int64(), row[2].int64());
        return Status::OK();
      }));
  return static_cast<double>(cells.size());
}

/// One load window against the cluster: query clients and, on its own
/// connection, the appender, both until `stop_at`.
LoadTally ClusterWindow(ClusterWorld* world, const RunRecord& record,
                        WireClientOptions client, int64_t first_day,
                        double stop_at) {
  dgf::testing::ShardedCluster* cluster = world->cluster.get();
  const uint64_t written0 = SumBytesWritten(cluster);
  LoadTally appends;
  std::thread appender([&] {
    appends = RunAppender(WireAppend(cluster->front()->port()), record.config,
                          first_day, stop_at, /*max_batches=*/0);
  });
  client.stop_at = stop_at;
  LoadTally load = RunWireQueryClients(client, record.query_clients);
  appender.join();
  load.Merge(appends);
  load.append_window_s = appends.append_window_s;
  load.append_days = appends.append_days;
  load.dfs_bytes_written = SumBytesWritten(cluster) - written0;
  return load;
}

Status RunIngestSharded(const Flags& flags, Tracer* tracer,
                        RunRecord* record) {
  record->config = Config(2000, 10, 11, flags.seed);
  record->query_clients = Clients(3, record->nproc - 1);
  DGF_ASSIGN_OR_RETURN(
      auto world,
      SetUpRepeatedly<ClusterWorld>(
          kIngestShardedSetupReps, record, [&](int) {
        return StartClusterWorld(record->config, 2);
      }));
  dgf::testing::ShardedCluster* cluster = world->cluster.get();
  record->shards = cluster->num_shards();
  DGF_ASSIGN_OR_RETURN(record->gfus, CountGridCells(record->config));

  std::vector<PoolQuery> pool = MakeQueryPool(
      record->config, kAllKinds,
      {Selectivity::kPoint, Selectivity::kFivePercent,
       Selectivity::kTwelvePercent},
      4);
  record->distinct_queries = pool.size();
  {
    const double oracle_start = NowSeconds();
    DGF_ASSIGN_OR_RETURN(auto oracle,
                         BuildOracleWorld(record->config,
                                          WorldDir(flags, "oracle")));
    DGF_RETURN_IF_ERROR(ComputeOracle(oracle->executor.get(), &pool));
    record->oracle_s = NowSeconds() - oracle_start;
  }

  WireClientOptions client;
  client.port = cluster->front()->port();
  client.pool = &pool;
  client.stop_at = kForever;
  client.max_queries = pool.size() / record->query_clients + 1;
  record->warmup = RunWireQueryClients(client, record->query_clients);
  ResetPeakRss();  // peak_rss_mb covers the measured windows only
  client.max_queries = 0;

  const int64_t first_day = record->config.start_day + record->config.num_days;
  const double window = flags.trace ? flags.seconds / 2 : flags.seconds;
  auto stats0 = SumShardStats(cluster);
  record->load = ClusterWindow(world.get(), *record, client, first_day,
                               NowSeconds() + window);
  record->append_expected_rows = static_cast<int64_t>(record->load.rows_acked);
  int64_t days = record->load.append_days;
  if (flags.trace) {
    client.tracer = tracer;
    client.shard_map = &cluster->shard_map();
    for (int i = 0; i < cluster->num_shards(); ++i) {
      client.shard_ports.push_back(cluster->shard_server(i)->port());
    }
    stats0 = SumShardStats(cluster);
    record->traced = ClusterWindow(world.get(), *record, client,
                                   first_day + days, NowSeconds() + window);
    record->append_expected_rows +=
        static_cast<int64_t>(record->traced.rows_acked);
    days += record->traced.append_days;
    record->replay = RunClusterReplay(cluster, pool, tracer);
  }
  record->append_stats = StatsDelta(stats0, SumShardStats(cluster));
  DGF_ASSIGN_OR_RETURN(
      record->append_counted_rows,
      WireCount(cluster->front()->port(), AppendedDaysCount(first_day, days)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output

void WriteRaw(const Flags& flags, const RunRecord& record, JsonWriter* json) {
  const auto& config = record.config;
  json->BeginObject()
      .Key("workload").String(flags.workload)
      .Key("seed").Int(static_cast<int64_t>(flags.seed))
      .Key("seconds").Number(flags.seconds)
      .Key("trace").Int(flags.trace ? 1 : 0)
      .Key("nproc").Int(record.nproc)
      .Key("query_clients").Int(record.query_clients)
      .Key("world").BeginObject()
      .Key("rows").Int(config.TotalRows())
      .Key("users").Int(config.num_users)
      .Key("days").Int(config.num_days)
      .Key("regions").Int(config.num_regions)
      .Key("shards").Int(record.shards)
      .Key("gfus").Number(record.gfus)
      .Key("gfu_cache_capacity").Number(kGfuCacheCapacity)
      .Key("distinct_queries").Int(static_cast<int64_t>(record.distinct_queries))
      .Key("append_rows_per_batch").Int(config.num_users)
      .EndObject()
      .Key("setup").BeginArray();
  for (const SetupTimes& times : record.setups) {
    json->BeginObject()
        .Key("generate_s").Number(times.generate_s)
        .Key("build_s").Number(times.build_s)
        .Key("serve_start_s").Number(times.serve_start_s)
        .Key("wall_s").Number(times.wall_s)
        .EndObject();
  }
  json->EndArray().Key("oracle_s").Number(record.oracle_s);
  json->Key("warmup");
  record.warmup.Write(json);
  json->Key("load");
  record.load.Write(json);
  if (flags.trace) {
    json->Key("traced");
    record.traced.Write(json);
    json->Key("replay");
    record.replay.Write(json);
  }
  json->Key("append_stats").BeginObject();
  for (const auto& [name, value] : record.append_stats) {
    json->Key(name).Number(value);
  }
  json->EndObject()
      .Key("append_check").BeginObject()
      .Key("expected_rows").Int(record.append_expected_rows)
      .Key("counted_rows").Int(record.append_counted_rows)
      .EndObject()
      .Key("peak_rss_mb").Number(PeakRssMb())
      .EndObject();
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--workload", &value)) {
      flags.workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      flags.seconds = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      flags.trace = value == "1";
    } else if (ParseFlag(argv[i], "--work-dir", &value)) {
      flags.work_dir = value;
    } else if (ParseFlag(argv[i], "--out", &value)) {
      flags.out = value;
    } else if (ParseFlag(argv[i], "--spans", &value)) {
      flags.spans = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (flags.work_dir.empty() || flags.out.empty() || flags.seconds <= 0 ||
      (flags.trace && flags.spans.empty())) {
    std::fprintf(stderr,
                 "need --work-dir, --out, --seconds > 0 (and --spans with "
                 "--trace=1)\n");
    return 2;
  }

  RunRecord record;
  record.nproc = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer;
  Status status;
  if (flags.workload == "serve_point") {
    status = RunServePoint(flags, &tracer, &record);
  } else if (flags.workload == "scan_wide") {
    status = RunScanWide(flags, &tracer, &record);
  } else if (flags.workload == "ingest_sharded") {
    status = RunIngestSharded(flags, &tracer, &record);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", flags.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  JsonWriter json;
  WriteRaw(flags, record, &json);
  {
    std::ofstream out(flags.out, std::ios::trunc);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
      return 1;
    }
  }
  if (flags.trace) {
    const Status written = tracer.WriteJsonl(flags.spans);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  const uint64_t wrong = record.warmup.wrong_answers +
                         record.load.wrong_answers +
                         record.traced.wrong_answers +
                         record.replay.wrong_answers;
  const bool appended_ok =
      record.append_counted_rows == record.append_expected_rows;
  return wrong == 0 && appended_ok ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
