#include "testing/crash_point.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace dgf::testing {
namespace {

constexpr const char* kCrashMessagePrefix = "injected crash at ";

enum class Mode { kOff, kRecording, kArmed };

struct State {
  Mode mode = Mode::kOff;
  std::string armed_point;
  int armed_occurrence = 0;
  bool fired = false;
  std::map<std::string, int> hits;
};

State& GetState() {
  static State state;
  return state;
}

}  // namespace

std::atomic<bool> CrashPoints::active_{false};

void CrashPoints::Arm(std::string point, int occurrence) {
  State& s = GetState();
  s.mode = Mode::kArmed;
  s.armed_point = std::move(point);
  s.armed_occurrence = occurrence;
  s.fired = false;
  s.hits.clear();
  active_.store(true, std::memory_order_relaxed);
}

void CrashPoints::Disarm() {
  State& s = GetState();
  s.mode = Mode::kOff;
  s.armed_point.clear();
  s.armed_occurrence = 0;
  s.hits.clear();
  active_.store(false, std::memory_order_relaxed);
}

void CrashPoints::StartRecording() {
  State& s = GetState();
  s.mode = Mode::kRecording;
  s.fired = false;
  s.hits.clear();
  active_.store(true, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, int>> CrashPoints::StopRecording() {
  State& s = GetState();
  std::vector<std::pair<std::string, int>> out(s.hits.begin(), s.hits.end());
  Disarm();
  return out;
}

bool CrashPoints::Fired() { return GetState().fired; }

Status CrashPoints::Check(const char* point) {
  State& s = GetState();
  if (s.mode == Mode::kOff) return Status::OK();
  const int hit = ++s.hits[point];
  if (s.mode == Mode::kArmed && !s.fired && s.armed_point == point &&
      hit == s.armed_occurrence) {
    s.fired = true;
    return Status::IOError(kCrashMessagePrefix + s.armed_point + "#" +
                           std::to_string(hit));
  }
  return Status::OK();
}

bool CrashPoints::IsInjectedCrash(const Status& status) {
  return status.IsIOError() &&
         status.message().rfind(kCrashMessagePrefix, 0) == 0;
}

Result<CrashSweepReport> RunCrashSweep(const CrashSweep& sweep) {
  CrashSweepReport report;
  std::vector<std::pair<std::string, int>> recorded;
  {
    DGF_ASSIGN_OR_RETURN(auto world, sweep.make_world());
    CrashPoints::StartRecording();
    const Status ran = world->Run();
    recorded = CrashPoints::StopRecording();
    if (!ran.ok()) {
      return Status::Internal("recording pass failed: " + ran.ToString());
    }
  }

  std::vector<std::string> namespaces;
  for (const std::string& required : sweep.required_points) {
    namespaces.push_back(required.substr(0, required.find('.') + 1));
  }
  std::vector<std::pair<std::string, int>> points;
  for (const auto& [point, hits] : recorded) {
    if (std::any_of(namespaces.begin(), namespaces.end(),
                    [&](const std::string& ns) {
                      return point.starts_with(ns);
                    })) {
      points.emplace_back(point, hits);
    }
  }
  report.points_covered = static_cast<int>(points.size());
  for (const std::string& required : sweep.required_points) {
    const bool reached =
        std::any_of(points.begin(), points.end(),
                    [&](const auto& entry) { return entry.first == required; });
    if (!reached) {
      report.failures.push_back("crash point never reached in recording: " +
                                required + sweep.repro);
    }
  }

  for (const auto& [point, hits] : points) {
    const int limit = std::min(hits, sweep.max_occurrences_per_point);
    for (int occurrence = 1; occurrence <= limit; ++occurrence) {
      ++report.schedules_run;
      const std::string tag = point + "#" + std::to_string(occurrence);
      auto fail = [&](const std::string& detail) {
        report.failures.push_back(tag + ": " + detail + sweep.repro);
      };
      auto world = sweep.make_world();
      if (!world.ok()) {
        fail("world: " + world.status().ToString());
        continue;
      }
      CrashPoints::Arm(point, occurrence);
      const Status ran = (*world)->Run();
      const bool fired = CrashPoints::Fired();
      CrashPoints::Disarm();
      if (!ran.ok() && !CrashPoints::IsInjectedCrash(ran)) {
        fail("workload error: " + ran.ToString());
        continue;
      }
      if (ran.ok() || !fired) {
        fail("armed crash never fired");
        continue;
      }
      if (sweep.verbose) {
        std::fprintf(stderr, "[crash-sweep] %s: crashed, recovering\n",
                     tag.c_str());
      }
      if (Status recovered = (*world)->Recover(); !recovered.ok()) {
        fail(recovered.ToString());
      }
    }
  }
  return report;
}

}  // namespace dgf::testing
