#ifndef DGF_BENCH_BENCH_UTIL_H_
#define DGF_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/temp_dir.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_index.h"
#include "exec/cluster.h"
#include "fs/mini_dfs.h"
#include "hadoopdb/hadoopdb.h"
#include "index/compact_index.h"
#include "kv/kv_store.h"
#include "query/executor.h"
#include "workload/meter_gen.h"
#include "workload/tpch_gen.h"
#include "workload/query_gen.h"

namespace dgf::bench {

/// Aborts with a message if `status` is not OK (bench binaries have no
/// recovery path; failing loudly beats printing bogus numbers).
void CheckOk(const Status& status, const char* context);

template <typename T>
T CheckOk(Result<T> result, const char* context) {
  CheckOk(result.status(), context);
  return std::move(result).value();
}

/// Reads an integer configuration knob from the environment (e.g.
/// DGF_BENCH_USERS) falling back to `fallback`. Lets the harness scale from
/// smoke-test to paper-shaped sizes without recompiling.
int64_t EnvInt(const char* name, int64_t fallback);

/// Reads a comma-separated integer list from the environment (e.g.
/// DGF_BENCH_BUILD_THREADS="1,2,4,8"); `fallback` uses the same syntax.
std::vector<int> EnvIntList(const char* name, const char* fallback);

/// Appends one JSON object (as a line) to the trajectory file named by env
/// var `env_name` (default `fallback_path`, relative to the working
/// directory). Benches use this to leave machine-readable results — one JSON
/// record per measurement — next to the human-readable tables.
void AppendBenchJson(const char* env_name, const char* fallback_path,
                     const std::string& json_object);

/// The paper's three interval-size classes for the userId dimension
/// (Section 5.3.1): large = 100 intervals, medium = 1000, small = 10000.
enum class IntervalClass { kLarge, kMedium, kSmall };
const char* IntervalClassName(IntervalClass c);
/// Number of userId intervals for the class.
int64_t IntervalCount(IntervalClass c);

/// A fully provisioned meter-data world for one bench binary: DFS, meter +
/// userInfo tables, and (on demand) DGFIndexes per interval class, Compact
/// indexes, and a HadoopDB deployment, all over the same generated data.
class MeterBench {
 public:
  struct Options {
    workload::MeterConfig config;
    uint64_t block_size = 4ULL << 20;  // scaled-down 64 MB HDFS block
    exec::ClusterConfig cluster;
    int worker_threads = 4;
  };

  /// Creates the DFS under a fresh temp directory and generates the data.
  static MeterBench Create(const std::string& tag, Options options);

  ~MeterBench();

  // Movable (the factory returns by value); moved-from instances own nothing.
  MeterBench(MeterBench&&) = default;
  MeterBench& operator=(MeterBench&&) = default;

  /// Builds (or returns the cached) DGFIndex with the class's userId
  /// interval; regionId interval 1 and time interval 1 day, precomputing
  /// sum(powerConsumed), as in the paper.
  core::DgfIndex* Dgf(IntervalClass c, exec::JobResult* build_stats = nullptr);

  /// 2-dim (regionId, time) Compact Index over an RCFile copy of the data —
  /// the baseline the paper actually uses after the 3-dim one blew up.
  index::CompactIndex* Compact(exec::JobResult* build_stats = nullptr);

  /// 3-dim Compact Index (userId, regionId, time) for Table 2's first row.
  index::CompactIndex* Compact3(exec::JobResult* build_stats = nullptr);

  /// HadoopDB deployment with the userInfo archive replicated.
  hadoopdb::HadoopDb* HadoopDb();

  /// Executor running queries through the DGFIndex of the given class (the
  /// scan path of this executor targets the TextFile table).
  std::unique_ptr<query::QueryExecutor> MakeDgfExecutor(IntervalClass c);

  /// Executor whose "meterdata" is the RCFile copy with a Compact Index
  /// registered (2-dim by default, 3-dim when `three_dim`). Its FullScan path
  /// is the paper's ScanTable baseline over RCFile.
  std::unique_ptr<query::QueryExecutor> MakeCompactExecutor(
      bool three_dim = false);

  /// Executor with no indexes, scanning the TextFile table.
  std::unique_ptr<query::QueryExecutor> MakeScanExecutor();

  const workload::MeterConfig& config() const { return options_.config; }
  const table::TableDesc& meter() const { return meter_; }
  const table::TableDesc& meter_rc() const { return meter_rc_; }
  const table::TableDesc& users() const { return users_; }
  const std::shared_ptr<fs::MiniDfs>& dfs() const { return dfs_; }
  const Options& options() const { return options_; }

 private:
  MeterBench() = default;

  Options options_;
  TempDir root_;  // declared before the handles: removed after they close
  std::shared_ptr<fs::MiniDfs> dfs_;
  table::TableDesc meter_;
  table::TableDesc meter_rc_;  // RCFile copy (Compact Index base)
  table::TableDesc users_;
  struct DgfHandle {
    std::shared_ptr<kv::KvStore> store;
    std::unique_ptr<core::DgfIndex> index;
  };
  DgfHandle dgf_[3];
  std::unique_ptr<index::CompactIndex> compact_;
  std::unique_ptr<index::CompactIndex> compact3_;
  std::unique_ptr<hadoopdb::HadoopDb> hadoopdb_;
};

/// Markdown-ish table printer used by every bench binary.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds / counts for table cells.
std::string Seconds(double s);
std::string Count(uint64_t n);

/// TPC-H world for the Table 5/6 and Figure 18 benches: a lineitem table
/// (TextFile for DGF, RCFile copy for Compact), sized by
/// DGF_BENCH_LINEITEM_ROWS (default 150000), with data_scale targeting the
/// paper's 4.1-billion-row lineitem.
class TpchBench {
 public:
  static TpchBench Create(const std::string& tag);
  ~TpchBench();
  TpchBench(TpchBench&&) = default;
  TpchBench& operator=(TpchBench&&) = default;

  /// 3-dim DGFIndex on (l_discount, l_quantity, l_shipdate) with intervals
  /// 0.01 / 1.0 / 100 days, precomputing sum(l_extendedprice*l_discount).
  core::DgfIndex* Dgf(exec::JobResult* build_stats = nullptr);
  /// Compact Index over the RCFile copy: 2-dim (l_discount, l_quantity) or
  /// 3-dim (+ l_shipdate).
  index::CompactIndex* Compact(bool three_dim,
                               exec::JobResult* build_stats = nullptr);

  std::unique_ptr<query::QueryExecutor> MakeDgfExecutor();
  std::unique_ptr<query::QueryExecutor> MakeCompactExecutor(bool three_dim);
  std::unique_ptr<query::QueryExecutor> MakeScanExecutor();

  const table::TableDesc& lineitem() const { return lineitem_; }
  const table::TableDesc& lineitem_rc() const { return lineitem_rc_; }
  const std::shared_ptr<fs::MiniDfs>& dfs() const { return dfs_; }
  const workload::LineitemConfig& config() const { return config_; }
  const exec::ClusterConfig& cluster() const { return cluster_; }

 private:
  TpchBench() = default;

  TempDir root_;  // declared before the handles: removed after they close
  std::shared_ptr<fs::MiniDfs> dfs_;
  workload::LineitemConfig config_;
  exec::ClusterConfig cluster_;
  int worker_threads_ = 4;
  table::TableDesc lineitem_;
  table::TableDesc lineitem_rc_;
  std::shared_ptr<kv::KvStore> dgf_store_;
  std::unique_ptr<core::DgfIndex> dgf_;
  std::unique_ptr<index::CompactIndex> compact2_;
  std::unique_ptr<index::CompactIndex> compact3_;
};

/// Standard bench sizing: reads DGF_BENCH_USERS / DGF_BENCH_DAYS /
/// DGF_BENCH_READINGS from the environment (defaults 8000 / 15 / 1) and uses
/// the paper's 28-worker cluster shape. All meter benches start from this so
/// their numbers compose.
MeterBench::Options DefaultMeterOptions();

}  // namespace dgf::bench

#endif  // DGF_BENCH_BENCH_UTIL_H_
