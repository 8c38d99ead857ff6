#include "runner/bench.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "dgf/aggregators.h"
#include "query/predicate.h"
#include "table/schema.h"
#include "table/value.h"

namespace perfbench {

using dgf::table::Value;

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ProcessCpuSeconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  // "5" resets the peak RSS of the process (Documentation/filesystems/proc).
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  String(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Separate();
  out_ += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Numbers(const std::vector<double>& values) {
  BeginArray();
  for (const double v : values) Number(v);
  return EndArray();
}

// ---------------------------------------------------------------------------
// Tracer

uint64_t Tracer::NextRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int64_t Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  for (const Span& span : spans_) {
    JsonWriter json;
    json.BeginObject()
        .Key("name").String(span.name)
        .Key("start").Number(span.start)
        .Key("end").Number(span.end)
        .Key("id").Int(span.id)
        .Key("parent").Int(span.parent)
        .Key("request").Int(static_cast<int64_t>(span.request))
        .Key("attrs").BeginObject();
    for (const auto& [key, value] : span.attrs) json.Key(key).Number(value);
    json.EndObject().EndObject();
    out << json.str() << '\n';
  }
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query pool

namespace {

const char* KindName(dgf::workload::MeterQueryKind kind) {
  switch (kind) {
    case dgf::workload::MeterQueryKind::kAggregation:
      return "aggregation";
    case dgf::workload::MeterQueryKind::kGroupBy:
      return "groupby";
    case dgf::workload::MeterQueryKind::kJoin:
      return "join";
    case dgf::workload::MeterQueryKind::kPartial:
      return "partial";
  }
  return "?";
}

}  // namespace

std::vector<PoolQuery> MakeQueryPool(
    const dgf::workload::MeterConfig& config,
    const std::vector<dgf::workload::MeterQueryKind>& kinds,
    const std::vector<dgf::workload::Selectivity>& sels, int variants) {
  std::vector<PoolQuery> pool;
  uint64_t variant = 0;
  for (int v = 0; v < variants; ++v) {
    for (const auto sel : sels) {
      for (const auto kind : kinds) {
        PoolQuery entry;
        entry.query = dgf::workload::MakeMeterQuery(config, kind, sel, variant++);
        entry.sql = entry.query.ToSql();
        entry.label = std::string(KindName(kind)) + "@" +
                      dgf::workload::SelectivityName(sel);
        pool.push_back(std::move(entry));
      }
    }
  }
  // Seeded Fisher-Yates, so clients interleave templates and selectivities.
  dgf::Random rng(config.seed ^ 0x9E11);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  }
  return pool;
}

Status ComputeOracle(dgf::query::QueryExecutor* executor,
                     std::vector<PoolQuery>* pool) {
  for (PoolQuery& entry : *pool) {
    DGF_ASSIGN_OR_RETURN(
        entry.oracle,
        executor->Execute(entry.query, dgf::query::AccessPath::kFullScan));
  }
  return Status::OK();
}

dgf::query::Query AppendedDaysCount(int64_t first_day, int64_t days) {
  dgf::query::Query q;
  q.table = "meterdata";
  q.where.And(dgf::query::ColumnRange::Between(
      "time", Value::Date(first_day), true, Value::Date(first_day + days),
      false));
  auto count = dgf::core::AggSpec::Parse("count(*)");
  q.select.push_back(dgf::query::SelectItem::Aggregation(*count));
  return q;
}

std::vector<std::string> MakeAppendBatch(
    const dgf::workload::MeterConfig& config, int64_t first_day, int batch) {
  dgf::Random rng(config.seed ^ (0xA99E + static_cast<uint64_t>(batch)));
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(config.num_users));
  for (int64_t user = 0; user < config.num_users; ++user) {
    dgf::table::Row row = {
        Value::Int64(user),
        Value::Int64(dgf::workload::RegionOfUser(config, user)),
        Value::Date(first_day + batch),
        Value::Double(rng.UniformDouble(0.0, 500.0))};
    for (int m = 0; m < config.extra_metrics; ++m) {
      row.push_back(Value::Double(rng.UniformDouble(0.0, 100.0)));
    }
    lines.push_back(dgf::table::FormatRowText(row));
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Tallies

void LoadTally::Merge(const LoadTally& other) {
  query_ms.insert(query_ms.end(), other.query_ms.begin(),
                  other.query_ms.end());
  queries_attempted += other.queries_attempted;
  queries_failed += other.queries_failed;
  wrong_answers += other.wrong_answers;
  check_s += other.check_s;
  append_ms.insert(append_ms.end(), other.append_ms.begin(),
                   other.append_ms.end());
  appends_attempted += other.appends_attempted;
  appends_failed += other.appends_failed;
  rows_acked += other.rows_acked;
  text_bytes_acked += other.text_bytes_acked;
  for (const std::string& error : other.errors) NoteError(error);
}

void LoadTally::NoteError(const std::string& error) {
  if (errors.size() < 5) errors.push_back(error);
}

void LoadTally::Write(JsonWriter* json) const {
  json->BeginObject()
      .Key("window_s").Number(window_s)
      .Key("query_ms").Numbers(query_ms)
      .Key("queries_attempted").Int(static_cast<int64_t>(queries_attempted))
      .Key("queries_failed").Int(static_cast<int64_t>(queries_failed))
      .Key("wrong_answers").Int(static_cast<int64_t>(wrong_answers))
      .Key("check_s").Number(check_s)
      .Key("append_ms").Numbers(append_ms)
      .Key("appends_attempted").Int(static_cast<int64_t>(appends_attempted))
      .Key("appends_failed").Int(static_cast<int64_t>(appends_failed))
      .Key("rows_acked").Int(static_cast<int64_t>(rows_acked))
      .Key("text_bytes_acked").Int(static_cast<int64_t>(text_bytes_acked))
      .Key("append_window_s").Number(append_window_s)
      .Key("dfs_bytes_written").Int(static_cast<int64_t>(dfs_bytes_written))
      .Key("errors").BeginArray();
  for (const std::string& error : errors) json->String(error);
  json->EndArray().EndObject();
}

std::map<std::string, double> StatsDelta(
    const std::vector<std::pair<std::string, double>>& before,
    const std::vector<std::pair<std::string, double>>& after) {
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after) delta[name] = value;
  for (const auto& [name, value] : before) delta[name] -= value;
  return delta;
}

}  // namespace perfbench
