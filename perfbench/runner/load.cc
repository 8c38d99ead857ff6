#include "runner/load.h"

#include <memory>
#include <thread>

#include "server/client.h"
#include "testing/differential.h"
#include "testing/shard_sweep.h"

namespace perfbench {

using dgf::server::Response;
using dgf::server::ServerClient;

namespace {

double Ms(double seconds) { return seconds * 1e3; }

/// Records the server-side spans a response carries under the client's
/// `rtt` span. The service's own `admission_wait` and `execute` spans are
/// children of `rtt`, so the part of the round trip no server span covers
/// (the rtt span's self time) is the wire. A coordinator reports no
/// `execute` span: its execution is the response's wall_seconds after the
/// admission wait, and its shard rpc / merge spans nest under that.
void RecordServerSpans(Tracer* tracer, uint64_t request, int64_t rtt_id,
                       double t0, const dgf::query::QueryStats& stats) {
  const dgf::obs::SpanTiming* admission = nullptr;
  const dgf::obs::SpanTiming* execute = nullptr;
  for (const auto& span : stats.spans) {
    if (span.name == "admission_wait") admission = &span;
    if (span.name == "execute") execute = &span;
  }
  double wait = 0;
  if (admission != nullptr) {
    wait = admission->duration_seconds;
    tracer->Add({"server.admission_wait", t0 + admission->start_seconds,
                 t0 + admission->start_seconds + wait, 0, rtt_id, request,
                 {}});
  }
  Span exec_span{"server.execute", 0, 0, 0, rtt_id, request, {}};
  if (execute != nullptr) {
    exec_span.start = t0 + execute->start_seconds;
    exec_span.end = exec_span.start + execute->duration_seconds;
  } else {
    exec_span.start = t0 + wait;
    exec_span.end = exec_span.start + stats.wall_seconds;
  }
  const int64_t exec_id = tracer->Add(std::move(exec_span));
  for (const auto& span : stats.spans) {
    if (&span == admission || &span == execute) continue;
    tracer->Add({"server." + span.name, t0 + span.start_seconds,
                 t0 + span.start_seconds + span.duration_seconds, 0, exec_id,
                 request, {}});
  }
}

Result<std::unique_ptr<ServerClient>> Connect(int port) {
  return ServerClient::ConnectTcp("127.0.0.1", port);
}

}  // namespace

std::string CheckAnswer(const PoolQuery& entry,
                        const dgf::query::QueryResult& answer) {
  return dgf::testing::DescribeResultMismatch(entry.oracle, answer);
}

LoadTally RunWireQueryClient(const WireClientOptions& options) {
  LoadTally tally;
  const std::vector<PoolQuery>& pool = *options.pool;
  std::unique_ptr<ServerClient> client;
  std::vector<std::unique_ptr<ServerClient>> shard_clients(
      options.shard_ports.size());
  for (size_t i = options.first_query;
       NowSeconds() < options.stop_at &&
       (options.max_queries == 0 ||
        tally.queries_attempted < options.max_queries);
       ++i) {
    const PoolQuery& entry = pool[i % pool.size()];
    ++tally.queries_attempted;
    if (client == nullptr) {
      auto connected = Connect(options.port);
      if (!connected.ok()) {
        ++tally.queries_failed;
        tally.NoteError("connect: " + connected.status().ToString());
        continue;
      }
      client = std::move(*connected);
    }
    const double t0 = NowSeconds();
    auto response = client->Query(entry.sql);
    const double t1 = NowSeconds();
    if (!response.ok()) {
      ++tally.queries_failed;
      tally.NoteError(entry.label + ": " + response.status().ToString());
      client.reset();  // the connection state is unknown; reconnect
      continue;
    }
    if (!response->ok()) {
      ++tally.queries_failed;
      tally.NoteError(entry.label + ": " +
                      dgf::server::ResponseStatus(*response).ToString());
      continue;
    }
    auto answer = dgf::testing::ResultFromPayload(response->result);
    const std::string mismatch =
        answer.ok() ? CheckAnswer(entry, *answer) : answer.status().ToString();
    tally.check_s += NowSeconds() - t1;
    if (!mismatch.empty()) {
      ++tally.queries_failed;
      ++tally.wrong_answers;
      tally.NoteError("wrong answer " + entry.label + " [" + entry.sql +
                      "]: " + mismatch);
      continue;
    }
    tally.query_ms.push_back(Ms(t1 - t0));
    if (options.tracer == nullptr) continue;

    Tracer* tracer = options.tracer;
    const uint64_t request = tracer->NextRequest();
    const int64_t rtt_id = tracer->Add({"rtt", t0, t1, 0, 0, request, {}});
    RecordServerSpans(tracer, request, rtt_id, t0, response->result.stats);
    if (options.shard_map == nullptr) continue;
    for (int shard = 0; shard < options.shard_map->num_shards(); ++shard) {
      auto sub = options.shard_map->Restrict(entry.query, shard);
      if (!sub.has_value()) continue;
      auto& shard_client = shard_clients[static_cast<size_t>(shard)];
      ++tally.queries_attempted;
      if (shard_client == nullptr) {
        auto connected =
            Connect(options.shard_ports[static_cast<size_t>(shard)]);
        if (!connected.ok()) {
          ++tally.queries_failed;
          tally.NoteError("shard connect: " + connected.status().ToString());
          continue;
        }
        shard_client = std::move(*connected);
      }
      const double s0 = NowSeconds();
      auto direct = shard_client->Query(sub->ToSql());
      const double s1 = NowSeconds();
      if (!direct.ok() || !direct->ok()) {
        ++tally.queries_failed;
        tally.NoteError("shard " + std::to_string(shard) + " " +
                        entry.label + ": " +
                        (direct.ok()
                             ? dgf::server::ResponseStatus(*direct).ToString()
                             : direct.status().ToString()));
        if (!direct.ok()) shard_client.reset();
        continue;
      }
      tracer->Add({"shard_direct", s0, s1, 0, 0, request,
                   {{"shard", static_cast<double>(shard)}}});
    }
  }
  return tally;
}

LoadTally RunWireQueryClients(WireClientOptions options, int clients) {
  std::vector<LoadTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const double start = NowSeconds();
  const size_t stride = options.pool->size() / static_cast<size_t>(clients);
  for (int c = 0; c < clients; ++c) {
    WireClientOptions mine = options;
    mine.first_query = static_cast<size_t>(c) * stride;
    threads.emplace_back([mine, tally = &tallies[static_cast<size_t>(c)]] {
      *tally = RunWireQueryClient(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadTally merged;
  merged.window_s = NowSeconds() - start;
  for (const LoadTally& tally : tallies) merged.Merge(tally);
  return merged;
}

LoadTally RunAppender(const AppendFn& append,
                      const dgf::workload::MeterConfig& config,
                      int64_t first_day, double stop_at, int max_batches) {
  LoadTally tally;
  const double start = NowSeconds();
  for (int batch = 0; NowSeconds() < stop_at &&
                      (max_batches == 0 || batch < max_batches);
       ++batch) {
    const std::vector<std::string> rows =
        MakeAppendBatch(config, first_day, batch);
    ++tally.appends_attempted;
    tally.append_days = batch + 1;
    const double t0 = NowSeconds();
    auto acked = append(rows);
    const double t1 = NowSeconds();
    if (!acked.ok() || *acked != rows.size()) {
      ++tally.appends_failed;
      tally.NoteError("append day " + std::to_string(first_day + batch) +
                      ": " +
                      (acked.ok() ? "acked " + std::to_string(*acked) +
                                        " of " + std::to_string(rows.size())
                                  : acked.status().ToString()));
      continue;
    }
    tally.append_ms.push_back(Ms(t1 - t0));
    tally.rows_acked += *acked;
    for (const std::string& row : rows) tally.text_bytes_acked += row.size() + 1;
  }
  tally.append_window_s = NowSeconds() - start;
  return tally;
}

AppendFn WireAppend(int port) {
  auto client = std::make_shared<std::unique_ptr<ServerClient>>();
  return [port, client](const std::vector<std::string>& rows)
             -> Result<uint64_t> {
    if (*client == nullptr) {
      DGF_ASSIGN_OR_RETURN(*client, Connect(port));
    }
    auto response = (*client)->Append("meterdata", rows);
    if (!response.ok()) {
      client->reset();
      return response.status();
    }
    if (!response->ok()) return dgf::server::ResponseStatus(*response);
    return response->rows_appended;
  };
}

LoadTally RunInProcessQueries(dgf::query::QueryExecutor* executor,
                              const std::vector<PoolQuery>& pool,
                              double stop_at, size_t max_queries) {
  LoadTally tally;
  const double start = NowSeconds();
  for (size_t i = 0; NowSeconds() < stop_at &&
                     (max_queries == 0 || i < max_queries);
       ++i) {
    const PoolQuery& entry = pool[i % pool.size()];
    ++tally.queries_attempted;
    const double t0 = NowSeconds();
    auto answer = executor->Execute(entry.query);
    const double t1 = NowSeconds();
    const std::string mismatch = answer.ok() ? CheckAnswer(entry, *answer)
                                             : answer.status().ToString();
    tally.check_s += NowSeconds() - t1;
    if (!mismatch.empty()) {
      ++tally.queries_failed;
      if (answer.ok()) ++tally.wrong_answers;
      tally.NoteError(entry.label + " [" + entry.sql + "]: " + mismatch);
      continue;
    }
    tally.query_ms.push_back(Ms(t1 - t0));
  }
  tally.window_s = NowSeconds() - start;
  return tally;
}

Result<int64_t> WireCount(int port, const dgf::query::Query& query) {
  DGF_ASSIGN_OR_RETURN(auto client, Connect(port));
  DGF_ASSIGN_OR_RETURN(Response response, client->Query(query.ToSql()));
  if (!response.ok()) return dgf::server::ResponseStatus(response);
  DGF_ASSIGN_OR_RETURN(auto result,
                       dgf::testing::ResultFromPayload(response.result));
  if (result.rows.size() != 1 || result.rows[0].empty()) {
    return Status::Internal("count(*) did not return one row");
  }
  return result.rows[0][0].int64();
}

}  // namespace perfbench
