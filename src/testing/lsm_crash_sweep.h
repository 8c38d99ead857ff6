#ifndef DGF_TESTING_LSM_CRASH_SWEEP_H_
#define DGF_TESTING_LSM_CRASH_SWEEP_H_

#include <cstdint>

#include "common/result.h"
#include "testing/crash_point.h"

namespace dgf::testing {

/// Crash-consistency sweep over LsmKv.
///
/// Runs a seeded Put/Delete/Flush/Compact workload through RunCrashSweep
/// (testing/crash_point.h), which records every `lsm.*` (crash point,
/// occurrence) boundary it crosses and replays the workload once per
/// boundary with that boundary armed: the store "dies" there (the op errors,
/// all in-memory state is discarded), is re-opened from disk, and the
/// recovered contents are checked against a shadow oracle:
///
///   * every acknowledged op survives exactly (durability),
///   * the one in-doubt op (the op that crashed) reads as either its old or
///     its new state (atomicity),
///   * no other key exists (no phantoms),
///   * and the re-opened store accepts new writes, flushes, and compactions
///     (no leaked run ids / stale files).
struct CrashSweepOptions {
  uint64_t seed = 1;
  /// Ops in the workload; sized so every flush/compact/manifest boundary is
  /// crossed several times.
  int num_ops = 220;
  /// Cap per crash point so pathological schedules stay bounded.
  int max_occurrences_per_point = 32;
  bool verbose = false;
};

Result<CrashSweepReport> RunLsmCrashSweep(const CrashSweepOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_LSM_CRASH_SWEEP_H_
