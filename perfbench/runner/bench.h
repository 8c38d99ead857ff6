#ifndef PERFBENCH_RUNNER_BENCH_H_
#define PERFBENCH_RUNNER_BENCH_H_

// Shared pieces of the benchmark runner: the query pool with its
// index-free oracle answers, the in-memory span recorder, the raw-result
// JSON writer, and the per-phase tallies the workloads fill in.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dgf/dgf_index.h"
#include "fs/mini_dfs.h"
#include "query/executor.h"
#include "query/query.h"
#include "table/table.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace perfbench {

using dgf::Result;
using dgf::Status;

/// Seconds on the steady clock since the first call in this process. All
/// spans of one run share this time base.
double NowSeconds();

/// CPU seconds this process (every thread) has used so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM) since the start or the
/// last ResetPeakRss, in MiB.
double PeakRssMb();

/// Restarts the VmHWM high-water mark from the current resident set, so
/// PeakRssMb covers only what follows (set-up, oracle and warm-up excluded).
void ResetPeakRss();

// ---------------------------------------------------------------------------
// Raw-result JSON

/// Minimal streaming JSON writer for the runner's raw result: objects,
/// arrays, numbers, strings. Commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& String(const std::string& value);
  JsonWriter& Numbers(const std::vector<double>& values);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  /// One flag per open container: true once it holds an element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer, recorded from the benchmark's own code.
/// Spans of one request share `request`; `parent` is the id of the span that
/// caused this one (0 for a root). `attrs` carries the counts measured at
/// the same boundary (records read, cache hits, preads, ...).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t id = 0;
  int64_t parent = 0;
  uint64_t request = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// Thread-safe in-memory span store; written out once, when the run ends.
class Tracer {
 public:
  uint64_t NextRequest();
  /// Stores `span`, assigning its id; returns the id.
  int64_t Add(Span span);
  /// One JSON object per line.
  Status WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 1;
};

// ---------------------------------------------------------------------------
// Queries and their oracle answers

/// One distinct query of a workload, with the answer computed without any
/// index (sequential FullScan over the base table).
struct PoolQuery {
  dgf::query::Query query;
  std::string sql;
  std::string label;  // e.g. "groupby@5%"
  dgf::query::QueryResult oracle;
};

/// Builds kinds x sels x variants distinct queries over `config` (whose
/// seed is the workload seed), in a seed-shuffled order.
std::vector<PoolQuery> MakeQueryPool(
    const dgf::workload::MeterConfig& config,
    const std::vector<dgf::workload::MeterQueryKind>& kinds,
    const std::vector<dgf::workload::Selectivity>& sels, int variants);

/// Fills every `oracle` with a FullScan answer from `executor` (which must
/// have the base meter and userinfo tables registered).
Status ComputeOracle(dgf::query::QueryExecutor* executor,
                     std::vector<PoolQuery>* pool);

/// `count(*)` over days [first_day, first_day + days): the post-ingest check
/// that every acknowledged row is visible.
dgf::query::Query AppendedDaysCount(int64_t first_day, int64_t days);

/// Deterministic append batch `batch`: one whole day, i.e. one reading of
/// every user, on day `first_day + batch` (a day the base data lacks) --
/// the paper's daily incremental load.
std::vector<std::string> MakeAppendBatch(
    const dgf::workload::MeterConfig& config, int64_t first_day, int batch);

// ---------------------------------------------------------------------------
// Tallies

/// Client-observed outcome of one load phase.
struct LoadTally {
  double window_s = 0;
  /// Latency of each successful query, ms.
  std::vector<double> query_ms;
  uint64_t queries_attempted = 0;
  /// Transport errors, non-OK responses (Unavailable included) and wrong
  /// answers.
  uint64_t queries_failed = 0;
  uint64_t wrong_answers = 0;
  /// Seconds spent checking answers (benchmark work), summed over clients.
  double check_s = 0;

  std::vector<double> append_ms;
  uint64_t appends_attempted = 0;
  uint64_t appends_failed = 0;
  uint64_t rows_acked = 0;
  /// Text bytes (row line + newline) of acknowledged rows.
  uint64_t text_bytes_acked = 0;
  /// Seconds the append phase ran (equal to window_s when appends run
  /// inside the query window).
  double append_window_s = 0;
  /// DFS bytes written during the append window, all DFSes summed.
  uint64_t dfs_bytes_written = 0;
  /// Days appended (one per batch), for the visibility check.
  int64_t append_days = 0;

  std::vector<std::string> errors;  // first few, for the report

  void Merge(const LoadTally& other);
  void NoteError(const std::string& error);
  void Write(JsonWriter* json) const;
};

/// Snapshot deltas of a service's STATS counters between two points.
std::map<std::string, double> StatsDelta(
    const std::vector<std::pair<std::string, double>>& before,
    const std::vector<std::pair<std::string, double>>& after);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_H_
