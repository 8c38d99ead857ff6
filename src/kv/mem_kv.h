#ifndef DGF_KV_MEM_KV_H_
#define DGF_KV_MEM_KV_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kv/kv_store.h"

namespace dgf::kv {

/// In-memory ordered KV store.
///
/// The default index store for unit tests, small benches and the serving
/// worlds. The data lives in two sorted runs held behind shared_ptr: a
/// *base* run of live entries and a small *delta* run of newer writes in
/// which the last write of a key wins and deletes stay as tombstones. A
/// read looks in the delta first and falls back to the base.
///
/// Snapshots and iterators copy the two pointers, so pinning costs the same
/// whether or not a write just landed, and a pinned view stays valid however
/// the store moves on. `ApplyBatch` sorts the batch, merges it into a new
/// delta, and once that delta holds more than 1/4 as many entries as the
/// base, folds it into a new base (tombstones drop out there). Both runs are
/// built outside the mutex readers take; the swap and the version bump are
/// the only work under it, and the replaced runs are freed after it is
/// released. A single `Put`/`Delete` edits the delta in place while no
/// snapshot or iterator has pinned it. A batch into an empty store becomes
/// the base directly.
class MemKv : public KvStore {
 public:
  MemKv() = default;

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) override;
  Status ApplyBatch(const WriteBatch& batch) override;
  std::shared_ptr<const KvSnapshot> GetSnapshot() override;
  uint64_t version() override;
  std::unique_ptr<Iterator> NewIterator() override;
  Result<uint64_t> Count() override;
  Result<uint64_t> ApproximateSizeBytes() override;

 private:
  // Sorted by key, keys unique; a null value is a tombstone (delta only).
  using Run = std::vector<
      std::pair<std::string, std::shared_ptr<const std::string>>>;

  struct Pinned {
    std::shared_ptr<const Run> base;
    std::shared_ptr<const Run> delta;
    uint64_t version;
  };

  // Applies `writes` (a sorted Run) as one publish.
  void Write(Run writes);
  // Swaps in new runs under mu_; the replaced runs are freed on return.
  // Caller holds write_mu_.
  void Install(std::shared_ptr<Run> base, std::shared_ptr<Run> delta,
               bool bump_version);
  // Copies both run pointers under mu_ and marks the delta shared.
  Pinned Pin();

  std::mutex write_mu_;  // serializes writers while they build new runs
  std::mutex mu_;  // guards the fields below (writers also hold write_mu_)
  std::shared_ptr<Run> base_ = std::make_shared<Run>();   // no tombstones
  std::shared_ptr<Run> delta_ = std::make_shared<Run>();
  bool delta_pinned_ = false;  // a snapshot or iterator may share delta_
  uint64_t version_ = 0;
};

}  // namespace dgf::kv

#endif  // DGF_KV_MEM_KV_H_
