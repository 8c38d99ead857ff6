// dgf_cli: command-line client for dgf_serverd.
//
//   dgf_cli [--port=N | --unix=PATH] query "SELECT ..." [--deadline=SECONDS]
//   dgf_cli [--port=N | --unix=PATH] append TABLE        # rows on stdin
//   dgf_cli [--port=N | --unix=PATH] stats
//   dgf_cli stats HOST:HTTP_PORT     # via the HTTP exporter, pretty-printed
//   dgf_cli [--port=N | --unix=PATH] ping
//   dgf_cli [--port=N | --unix=PATH] shutdown
//
// Query output: schema header line, then one pipe-separated line per row,
// then a `-- stats` trailer with the per-query accounting. `stats` prints
// the server's metrics registry as name=value lines, sorted: counters such
// as queries.served and cache.hits / cache.misses, gauges, and each
// histogram as .count/.sum/.p50/.p95/.p99 (latency.p50 is in seconds). The
// HTTP form fetches /stats from a daemon started with --http-port and
// prints the same series grouped by prefix, with each histogram folded onto
// one quantile row. A malformed flag value (`--port=x`) prints the usage
// and exits 2.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "obs/http_exporter.h"
#include "query/executor.h"
#include "server/client.h"

namespace dgf::server {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dgf_cli [--port=N|--unix=PATH] [--deadline=SECONDS] "
               "query|append|stats|ping|shutdown ...\n"
               "       dgf_cli stats HOST:HTTP_PORT\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dgf_cli: %s\n", status.ToString().c_str());
  return 1;
}

int PrintResponse(const Result<Response>& response) {
  if (!response.ok()) return Fail(response.status());
  if (!response->ok()) return Fail(ResponseStatus(*response));
  return 0;
}

int RunQuery(ServerClient& client, const std::string& sql, double deadline) {
  auto response = client.Query(sql, deadline);
  if (!response.ok()) return Fail(response.status());
  if (!response->ok()) return Fail(ResponseStatus(*response));
  const QueryResultPayload& result = response->result;
  std::string header;
  for (const table::Field& field : result.schema.fields()) {
    if (!header.empty()) header += "|";
    header += field.name;
  }
  std::printf("%s\n", header.c_str());
  for (const std::string& row : result.rows) std::printf("%s\n", row.c_str());
  const query::QueryStats& stats = result.stats;
  std::printf(
      "-- stats: path=%s rows=%zu records_read=%llu matched=%llu "
      "splits=%d kv_gets=%llu cache_hits=%llu cache_misses=%llu "
      "wall_ms=%.2f\n",
      query::AccessPathName(stats.path), result.rows.size(),
      static_cast<unsigned long long>(stats.records_read),
      static_cast<unsigned long long>(stats.records_matched),
      stats.splits_scanned, static_cast<unsigned long long>(stats.kv_gets),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      stats.wall_seconds * 1e3);
  return 0;
}

int RunStats(ServerClient& client) {
  auto response = client.Stats();
  if (!response.ok()) return Fail(response.status());
  if (!response->ok()) return Fail(ResponseStatus(*response));
  for (const auto& [name, value] : response->stats) {
    std::printf("%s=%g\n", name.c_str(), value);
  }
  return 0;
}

/// Parses the exporter's flat JSON object ({"name": 1.5, ...}) into sorted
/// (name, value) pairs. Metric names are dotted identifiers, so no escape
/// handling is needed beyond finding the closing quote.
std::map<std::string, double> ParseFlatJson(const std::string& json) {
  std::map<std::string, double> metrics;
  size_t at = 0;
  for (;;) {
    const size_t open = json.find('"', at);
    if (open == std::string::npos) break;
    const size_t close = json.find('"', open + 1);
    if (close == std::string::npos) break;
    const size_t colon = json.find(':', close + 1);
    if (colon == std::string::npos) break;
    metrics[json.substr(open + 1, close - open - 1)] =
        std::strtod(json.c_str() + colon + 1, nullptr);
    at = colon + 1;
  }
  return metrics;
}

/// `stats HOST:HTTP_PORT`: fetch /stats from the HTTP exporter and pretty
/// print. Counters group under their first dotted segment; a histogram's
/// flattened series (base.count/.sum/.p50/.p95/.p99) folds back onto one
/// row. The exporter binds 127.0.0.1, so that is where we connect — the
/// host part is accepted for symmetry with --shard endpoints.
int RunHttpStats(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  int port = 0;
  if (colon == std::string::npos ||
      !ParseNumber(std::string_view(endpoint).substr(colon + 1), &port) ||
      port <= 0) {
    std::fprintf(stderr, "dgf_cli: bad stats endpoint (want HOST:PORT): %s\n",
                 endpoint.c_str());
    return 2;
  }
  auto response = obs::HttpGet(port, "/stats");
  if (!response.ok()) return Fail(response.status());
  if (response->status_code != 200) {
    std::fprintf(stderr, "dgf_cli: GET /stats -> HTTP %d\n",
                 response->status_code);
    return 1;
  }
  const std::map<std::string, double> metrics = ParseFlatJson(response->body);

  // Histogram bases: every name with all five flattened suffixes present.
  static const char* kSuffixes[] = {".count", ".sum", ".p50", ".p95", ".p99"};
  std::set<std::string> histogram_bases;
  std::set<std::string> folded;
  for (const auto& [name, value] : metrics) {
    if (name.size() <= 6 || name.compare(name.size() - 6, 6, ".count") != 0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - 6);
    bool all = true;
    for (const char* suffix : kSuffixes) {
      all = all && metrics.count(base + suffix) > 0;
    }
    if (!all) continue;
    histogram_bases.insert(base);
    for (const char* suffix : kSuffixes) folded.insert(base + suffix);
  }

  // Formatted display rows, keyed by the name they sort under (histograms
  // under their base name).
  std::map<std::string, std::string> rows;
  for (const std::string& base : histogram_bases) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-28s count=%.0f sum=%g p50=%g p95=%g p99=%g", base.c_str(),
                  metrics.at(base + ".count"), metrics.at(base + ".sum"),
                  metrics.at(base + ".p50"), metrics.at(base + ".p95"),
                  metrics.at(base + ".p99"));
    rows[base] = line;
  }
  for (const auto& [name, value] : metrics) {
    if (folded.count(name) > 0) continue;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-28s %g", name.c_str(), value);
    rows[name] = line;
  }

  // Sorted order; a change of the first dotted segment opens a new [group].
  std::string group;
  for (const auto& [name, line] : rows) {
    const size_t dot = name.find('.');
    const std::string prefix =
        dot == std::string::npos ? name : name.substr(0, dot);
    if (prefix != group) {
      group = prefix;
      std::printf("[%s]\n", group.c_str());
    }
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int RunAppend(ServerClient& client, const std::string& table) {
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  auto response = client.Append(table, rows);
  if (!response.ok()) return Fail(response.status());
  if (!response->ok()) return Fail(ResponseStatus(*response));
  std::printf("appended %llu rows to %s\n",
              static_cast<unsigned long long>(response->rows_appended),
              table.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  int port = 4641;
  std::string unix_path;
  std::string command;
  std::vector<std::string> args;
  double deadline = 0;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "--port", &value)) {
      ok = ParseNumber(value, &port);
    } else if (ParseFlag(argv[i], "--unix", &value)) {
      unix_path = value;
    } else if (ParseFlag(argv[i], "--deadline", &value)) {
      ok = ParseNumber(value, &deadline);
    } else if (command.empty()) {
      command = argv[i];
    } else {
      args.emplace_back(argv[i]);
    }
    if (!ok) {
      std::fprintf(stderr, "dgf_cli: bad argument: %s\n", argv[i]);
      return Usage();
    }
  }
  if (command.empty()) return Usage();
  // `stats HOST:PORT` talks HTTP to the observability exporter, not the wire
  // protocol — handle it before dialing the wire endpoint.
  if (command == "stats" && args.size() == 1 &&
      args[0].find(':') != std::string::npos) {
    return RunHttpStats(args[0]);
  }
  auto client = unix_path.empty() ? ServerClient::ConnectTcp("127.0.0.1", port)
                                  : ServerClient::ConnectUnix(unix_path);
  if (!client.ok()) return Fail(client.status());

  if (command == "query") {
    if (args.size() != 1) {
      std::fprintf(stderr, "usage: dgf_cli query \"SELECT ...\"\n");
      return 2;
    }
    return RunQuery(**client, args[0], deadline);
  }
  if (command == "append") {
    if (args.size() != 1) {
      std::fprintf(stderr, "usage: dgf_cli append TABLE < rows.txt\n");
      return 2;
    }
    return RunAppend(**client, args[0]);
  }
  if (command == "stats") return RunStats(**client);
  if (command == "ping") {
    const int rc = PrintResponse((*client)->Ping());
    if (rc == 0) std::printf("pong\n");
    return rc;
  }
  if (command == "shutdown") {
    const int rc = PrintResponse((*client)->Shutdown());
    if (rc == 0) std::printf("server drained and stopped\n");
    return rc;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace dgf::server

int main(int argc, char** argv) { return dgf::server::Main(argc, argv); }
