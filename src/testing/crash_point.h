#ifndef DGF_TESTING_CRASH_POINT_H_
#define DGF_TESTING_CRASH_POINT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dgf::testing {

/// Process-wide registry of named crash points.
///
/// Production code marks the boundaries of its multi-step durable updates
/// with `DGF_CRASH_POINT("lsm.flush.after_sstable")`. In normal operation the
/// macro is a single relaxed atomic load. The crash-consistency sweep drives
/// it in two modes:
///
///   * recording: every hit is counted per point, nothing fails. The sweep
///     uses the recorded (point, hit-count) map to enumerate every syscall
///     boundary a real crash could land on.
///   * armed: the k-th hit of one chosen point returns an injected IOError,
///     simulating the process dying at exactly that boundary. The caller
///     then discards all in-memory state and re-opens from disk, which is
///     what a real restart would see (writes before the point are on disk,
///     writes after it never happened).
///
/// Not thread-safe by design: crash sweeps run their workload single
/// threaded so the boundary enumeration is deterministic and replayable
/// from a seed.
class CrashPoints {
 public:
  /// Arms `point`: its `occurrence`-th hit (1-based) fails with IOError.
  static void Arm(std::string point, int occurrence);

  /// Leaves armed/recording mode; hit counters are reset.
  static void Disarm();

  /// Starts counting hits without failing any.
  static void StartRecording();

  /// Stops recording and returns (point, hits) sorted by point name.
  static std::vector<std::pair<std::string, int>> StopRecording();

  /// True once the armed crash has fired (the sweep uses this to tell an
  /// injected crash from an ordinary workload error).
  static bool Fired();

  /// Fast-path guard: false whenever no sweep is active.
  static bool Active() {
    return active_.load(std::memory_order_relaxed);
  }

  /// Called by instrumented code via DGF_CRASH_POINT. Returns the injected
  /// error when this hit is the armed one.
  static Status Check(const char* point);

  /// True if `status` is an error injected by an armed crash point.
  static bool IsInjectedCrash(const Status& status);

 private:
  static std::atomic<bool> active_;
};

/// What a crash sweep reports: one shape for every sweep that arms points.
struct CrashSweepReport {
  /// Distinct crash points of the sweep's namespaces the recording reached.
  int points_covered = 0;
  /// Schedules replayed: one per (point, occurrence), plus any extra
  /// schedules a sweep runs on its own.
  int schedules_run = 0;
  /// Human-readable failures, each naming its schedule (`point#occurrence`)
  /// and ending in a repro command.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
};

/// One fresh world of a crash sweep. The driver builds one for the
/// recording pass and one per schedule, so no schedule sees another's
/// leftovers; the world owns everything its workload touches.
class CrashSweepWorld {
 public:
  virtual ~CrashSweepWorld() = default;
  /// Runs the seeded workload, stopping at the first error, and returns
  /// that error (an injected crash included) or OK. Keeps whatever it needs
  /// to know what was acknowledged.
  virtual Status Run() = 0;
  /// Called after an injected crash: drops every in-memory handle (the
  /// process died), reopens from disk, and checks the recovered state
  /// against the acknowledged prefix.
  virtual Status Recover() = 0;
};

/// The parts of a crash sweep that differ from sweep to sweep.
struct CrashSweep {
  /// Points the recording must reach, or the instrumentation has rotted.
  /// Their namespaces (the text up to and including the first '.', e.g.
  /// "lsm.") choose which recorded points are swept: a workload may cross
  /// other layers' points without arming them.
  std::vector<std::string> required_points;
  /// Cap per crash point so pathological schedules stay bounded.
  int max_occurrences_per_point = 8;
  /// Appended to every failure, e.g. " [repro: dgf_difftest ...]".
  std::string repro;
  bool verbose = false;
  std::function<Result<std::unique_ptr<CrashSweepWorld>>()> make_world;
};

/// The record-then-arm loop shared by the crash sweeps: run the workload
/// once recording every crash point it crosses, then for every recorded
/// (point, occurrence) in the sweep's namespaces build a fresh world, arm
/// that boundary, replay, and recover. A schedule fails when the workload
/// errs on its own, when the armed point never fires, or when recovery
/// does not check out; a required point the recording never reached is a
/// failure too. Only a world that cannot be built for the recording pass,
/// or a recording pass that fails, is a harness error.
Result<CrashSweepReport> RunCrashSweep(const CrashSweep& sweep);

}  // namespace dgf::testing

/// Marks one crash boundary inside a function returning Status (or, via
/// DGF_RETURN_IF_ERROR at the call site, Result<T>). Free when no sweep is
/// active.
#define DGF_CRASH_POINT(point)                                          \
  do {                                                                  \
    if (::dgf::testing::CrashPoints::Active()) {                        \
      DGF_RETURN_IF_ERROR(::dgf::testing::CrashPoints::Check(point));   \
    }                                                                   \
  } while (0)

#endif  // DGF_TESTING_CRASH_POINT_H_
