#include "runner/layers.h"

#include "dgf/dgf_input_format.h"
#include "runner/load.h"
#include "query/parser.h"

namespace perfbench {

namespace {

using Attrs = std::vector<std::pair<std::string, double>>;

double Stat(const std::vector<std::pair<std::string, double>>& stats,
            const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0;
}

Attrs ExecuteAttrs(const dgf::query::QueryStats& stats, uint64_t preads,
                   uint64_t dfs_bytes) {
  return {{"records_read", static_cast<double>(stats.records_read)},
          {"records_matched", static_cast<double>(stats.records_matched)},
          {"bytes_read", static_cast<double>(stats.bytes_read)},
          {"kv_entries", static_cast<double>(stats.kv_gets)},
          {"cache_hits", static_cast<double>(stats.cache_hits)},
          {"cache_misses", static_cast<double>(stats.cache_misses)},
          {"preads", static_cast<double>(preads)},
          {"dfs_bytes_read", static_cast<double>(dfs_bytes)}};
}

const dgf::table::Schema* RightSchema(const PoolQuery& entry,
                                      const dgf::table::Schema& user_info) {
  return entry.query.join.has_value() ? &user_info : nullptr;
}

/// Whether Execute would take the precomputed-header path for `q` (the
/// same test the executor applies), so the shadow lookup matches it.
bool AggregationPath(const dgf::core::DgfIndex& index,
                     const dgf::core::DgfIndex::Snapshot& snap,
                     const dgf::query::Query& q) {
  if (!q.IsPlainAggregation()) return false;
  for (const auto& range : q.where.ranges()) {
    if (!index.policy().DimIndex(range.column).ok()) return false;
  }
  return dgf::core::DgfIndex::CoversAggregations(*snap.aggs,
                                                 q.Aggregations());
}

/// The slice-read layer on its own: plan the splits of `slices` and drain
/// every row through the executor's reader type.
Status ReadSlices(const std::shared_ptr<dgf::fs::MiniDfs>& dfs,
                  const dgf::core::DgfIndex& index,
                  std::vector<dgf::core::SliceLocation> slices,
                  Attrs* attrs) {
  slices = dgf::core::CoalesceSlices(std::move(slices));
  DGF_ASSIGN_OR_RETURN(auto planned,
                       dgf::core::PlanSlicedSplits(dfs, slices));
  uint64_t records = 0;
  uint64_t bytes = 0;
  dgf::table::Row row;
  for (const auto& sliced : planned) {
    DGF_ASSIGN_OR_RETURN(
        auto reader,
        dgf::core::SliceRecordReader::Open(dfs, sliced, index.schema(),
                                           index.data_format()));
    for (;;) {
      DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
      if (!more) break;
      ++records;
    }
    bytes += reader->BytesRead();
  }
  *attrs = {{"splits", static_cast<double>(planned.size())},
            {"records", static_cast<double>(records)},
            {"bytes", static_cast<double>(bytes)}};
  return Status::OK();
}

}  // namespace

Status WarmLookups(dgf::core::DgfIndex* index,
                   const std::vector<PoolQuery>& pool) {
  for (const PoolQuery& entry : pool) {
    DGF_ASSIGN_OR_RETURN(auto snap, index->Pin());
    DGF_RETURN_IF_ERROR(
        index
            ->Lookup(snap, entry.query.where,
                     AggregationPath(*index, snap, entry.query))
            .status());
  }
  return Status::OK();
}

LoadTally RunLayerReplay(const LayerReplay& replay,
                         const std::vector<PoolQuery>& pool, double stop_at,
                         size_t max_queries) {
  LoadTally tally;
  Tracer* tracer = replay.tracer;
  const double start = NowSeconds();
  for (size_t i = 0; NowSeconds() < stop_at &&
                         (max_queries == 0 || tally.queries_attempted <
                                                  max_queries);
       ++i) {
    const PoolQuery& entry = pool[i % pool.size()];
    ++tally.queries_attempted;
    const uint64_t request = tracer->NextRequest();
    const double t0 = NowSeconds();
    std::vector<Span> children;
    Status status = [&]() -> Status {
      double s0 = NowSeconds();
      auto parsed = dgf::query::ParseQuery(
          entry.sql, replay.meter_schema,
          RightSchema(entry, replay.user_info_schema));
      children.push_back({"parse", s0, NowSeconds(), 0, 0, request, {}});
      DGF_RETURN_IF_ERROR(parsed.status());

      const uint64_t preads0 = replay.dfs->TotalPreadCalls();
      const uint64_t bytes0 = replay.dfs->TotalBytesRead();
      s0 = NowSeconds();
      auto answer = replay.executor->Execute(*parsed);
      const double s1 = NowSeconds();
      DGF_RETURN_IF_ERROR(answer.status());
      children.push_back(
          {"execute", s0, s1, 0, 0, request,
           ExecuteAttrs(answer->stats,
                        replay.dfs->TotalPreadCalls() - preads0,
                        replay.dfs->TotalBytesRead() - bytes0)});
      const double c0 = NowSeconds();
      const std::string mismatch = CheckAnswer(entry, *answer);
      tally.check_s += NowSeconds() - c0;
      if (!mismatch.empty()) {
        ++tally.wrong_answers;
        return Status::Internal("wrong answer " + entry.label + " [" +
                                entry.sql + "]: " + mismatch);
      }

      s0 = NowSeconds();
      DGF_ASSIGN_OR_RETURN(auto snap, replay.shadow->Pin());
      auto lookup = replay.shadow->Lookup(
          snap, parsed->where, AggregationPath(*replay.shadow, snap, *parsed));
      const double lookup_end = NowSeconds();
      DGF_RETURN_IF_ERROR(lookup.status());
      children.push_back(
          {"lookup", s0, lookup_end, 0, 0, request,
           {{"inner_gfus", static_cast<double>(lookup->inner_gfus)},
            {"boundary_gfus", static_cast<double>(lookup->boundary_gfus)},
            {"kv_gets", static_cast<double>(lookup->kv_gets)},
            {"kv_scan_entries", static_cast<double>(lookup->kv_scan_entries)},
            {"cache_hits", static_cast<double>(lookup->cache_hits)},
            {"cache_misses", static_cast<double>(lookup->cache_misses)},
            {"slices", static_cast<double>(lookup->slices.size())}}});

      Attrs read_attrs;
      s0 = NowSeconds();
      DGF_RETURN_IF_ERROR(ReadSlices(replay.dfs, *replay.shadow,
                                     std::move(lookup->slices), &read_attrs));
      children.push_back({"slice_read", s0, NowSeconds(), 0, 0, request,
                          std::move(read_attrs)});
      return Status::OK();
    }();
    const double t1 = NowSeconds();
    const int64_t root = tracer->Add({"replay", t0, t1, 0, 0, request, {}});
    for (Span& child : children) {
      child.parent = root;
      tracer->Add(std::move(child));
    }
    if (!status.ok()) {
      ++tally.queries_failed;
      tally.NoteError(status.ToString());
      continue;
    }
    tally.query_ms.push_back((t1 - t0) * 1e3);
  }
  tally.window_s = NowSeconds() - start;
  return tally;
}

LoadTally RunClusterReplay(dgf::testing::ShardedCluster* cluster,
                           const std::vector<PoolQuery>& pool,
                           Tracer* tracer) {
  LoadTally tally;
  const dgf::table::Schema& meter_schema = cluster->meter_desc().schema;
  const dgf::table::Schema user_info_schema =
      dgf::workload::UserInfoSchema();
  const double start = NowSeconds();
  for (const PoolQuery& entry : pool) {
    ++tally.queries_attempted;
    const uint64_t request = tracer->NextRequest();
    const double t0 = NowSeconds();
    std::vector<Span> children;
    Status status = [&]() -> Status {
      const double s0 = NowSeconds();
      auto parsed = dgf::query::ParseQuery(
          entry.sql, meter_schema, RightSchema(entry, user_info_schema));
      children.push_back({"parse", s0, NowSeconds(), 0, 0, request, {}});
      DGF_RETURN_IF_ERROR(parsed.status());
      for (int shard = 0; shard < cluster->num_shards(); ++shard) {
        auto sub = cluster->shard_map().Restrict(*parsed, shard);
        if (!sub.has_value()) continue;
        dgf::server::QueryService* service = cluster->shard_service(shard);
        const auto& dfs = cluster->shard_dfs(shard);
        const auto stats0 = service->metrics()->Snapshot();
        const uint64_t preads0 = dfs->TotalPreadCalls();
        const uint64_t bytes0 = dfs->TotalBytesRead();
        const double e0 = NowSeconds();
        auto answer = service->executor()->Execute(*sub);
        const double e1 = NowSeconds();
        DGF_RETURN_IF_ERROR(answer.status());
        const auto stats1 = service->metrics()->Snapshot();
        Attrs attrs = ExecuteAttrs(answer->stats,
                                   dfs->TotalPreadCalls() - preads0,
                                   dfs->TotalBytesRead() - bytes0);
        attrs.emplace_back("shard", shard);
        attrs.emplace_back("inner_gfus",
                           Stat(stats1, "gfu.inner_accesses") -
                               Stat(stats0, "gfu.inner_accesses"));
        attrs.emplace_back("boundary_gfus",
                           Stat(stats1, "gfu.boundary_accesses") -
                               Stat(stats0, "gfu.boundary_accesses"));
        children.push_back(
            {"execute", e0, e1, 0, 0, request, std::move(attrs)});
      }
      return Status::OK();
    }();
    const double t1 = NowSeconds();
    const int64_t root = tracer->Add({"replay", t0, t1, 0, 0, request, {}});
    for (Span& child : children) {
      child.parent = root;
      tracer->Add(std::move(child));
    }
    if (!status.ok()) {
      ++tally.queries_failed;
      tally.NoteError(status.ToString());
      continue;
    }
    tally.query_ms.push_back((t1 - t0) * 1e3);
  }
  tally.window_s = NowSeconds() - start;
  return tally;
}

}  // namespace perfbench
