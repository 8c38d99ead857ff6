#ifndef DGF_TESTING_BUILDER_CRASH_SWEEP_H_
#define DGF_TESTING_BUILDER_CRASH_SWEEP_H_

#include <cstdint>

#include "common/result.h"
#include "testing/crash_point.h"

namespace dgf::testing {

/// Crash-consistency sweep over the DGFIndex build & append pipeline.
///
/// Runs a seeded workload — Build, two direct DgfBuilder::Appends, one
/// QueryService group-commit append — through RunCrashSweep
/// (testing/crash_point.h), which enumerates every `dgf.*` crash boundary it
/// crosses (shard merge, slice writing, the publish points, the group-commit
/// flush) and replays the workload once per (point, occurrence) with that
/// boundary armed: the op dies there, all in-memory state (index handle, KV
/// store) is discarded, and the store is re-opened from disk. The recovered
/// index must be exactly the acknowledged prefix:
///
///   * an interrupted Build publishes nothing — the store re-opens empty
///     (slice files already on the DFS are unreferenced orphans);
///   * an interrupted Append leaves the index at the acknowledged batch
///     prefix — full slice scans return exactly the rows of the base table
///     plus every acknowledged batch, never a torn batch;
///   * the batch counter matches the acknowledged publishes;
///   * recovery is live: a retry (re-Build, or a fresh Append) over the
///     crashed state succeeds — orphan slice files of the dead attempt are
///     reclaimed — and yields the correct rows.
///
/// One extra schedule truncates an orphan slice file (testing/corruption.h)
/// after a pre-publish build crash, asserting a truncated in-progress build
/// never publishes and does not poison the retry.
///
/// Single-threaded by design (crash points are not thread-safe); the
/// parallel pipeline's determinism is covered by RunBuildEquivalenceSweep.
struct BuilderCrashSweepOptions {
  uint64_t seed = 1;
  /// Cap per crash point so pathological schedules stay bounded.
  int max_occurrences_per_point = 8;
  bool verbose = false;
};

/// `schedules_run` counts the truncation schedule too.
Result<CrashSweepReport> RunBuilderCrashSweep(
    const BuilderCrashSweepOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_BUILDER_CRASH_SWEEP_H_
