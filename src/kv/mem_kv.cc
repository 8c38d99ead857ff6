#include "kv/mem_kv.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace dgf::kv {
namespace {

// Same types as MemKv's: sorted unique keys, a null value is a tombstone.
// Values are shared so that merging runs copies a pointer, not the value.
using Value = std::shared_ptr<const std::string>;
using Run = std::vector<std::pair<std::string, Value>>;

// The delta folds into the base once it holds more than 1/kFoldDivisor as
// many entries as the base. Each publish copies the delta and each fold the
// base: a larger divisor makes publishes cheaper and folds more frequent.
// At 4, a run of single Puts copies each entry about 5 times in all, and a
// day-sized append onto ~10^5 GFUs copies ~10^4 entries, not 10^5.
constexpr size_t kFoldDivisor = 4;

bool PastFoldFraction(size_t delta_size, size_t base_size) {
  return delta_size * kFoldDivisor > base_size;
}

size_t LowerBound(const Run& run, std::string_view key) {
  return static_cast<size_t>(
      std::lower_bound(run.begin(), run.end(), key,
                       [](const auto& entry, std::string_view t) {
                         return entry.first < t;
                       }) -
      run.begin());
}

// The entry for `key` in `run`, tombstone included; nullptr if absent.
const Run::value_type* FindIn(const Run& run, std::string_view key) {
  const size_t pos = LowerBound(run, key);
  if (pos == run.size() || run[pos].first != key) return nullptr;
  return &run[pos];
}

// The live value of `key` in delta-over-base.
Result<std::string> Lookup(const Run& base, const Run& delta,
                           std::string_view key) {
  const Run::value_type* entry = FindIn(delta, key);
  if (entry == nullptr) entry = FindIn(base, key);
  if (entry == nullptr || !entry->second) {
    return Status::NotFound("key not found");
  }
  return *entry->second;
}

// Merges `newer` over `older`: on equal keys the newer entry wins. With
// `drop_tombstones` (a fold into the base) deletes drop out.
Run MergeRuns(const Run& older, Run newer, bool drop_tombstones) {
  if (older.empty()) {
    if (drop_tombstones) {
      std::erase_if(newer, [](const auto& entry) { return !entry.second; });
    }
    return newer;
  }
  Run out;
  out.reserve(older.size() + newer.size());
  size_t i = 0;
  for (auto& entry : newer) {
    while (i < older.size() && older[i].first < entry.first) {
      out.push_back(older[i++]);
    }
    if (i < older.size() && older[i].first == entry.first) ++i;  // shadowed
    if (entry.second || !drop_tombstones) out.push_back(std::move(entry));
  }
  out.insert(out.end(), older.begin() + static_cast<ptrdiff_t>(i),
             older.end());
  return out;
}

// The batch as a Run: sorted by key, and of a key written more than once
// only the last write kept.
Run SortedWrites(const WriteBatch& batch) {
  const std::vector<WriteBatch::Entry>& entries = batch.entries();
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto by_key = [&](size_t a, size_t b) {
    return entries[a].key < entries[b].key;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_key)) {
    std::stable_sort(order.begin(), order.end(), by_key);
  }
  Run run;
  run.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const WriteBatch::Entry& entry = entries[order[i]];
    if (i + 1 < order.size() && entries[order[i + 1]].key == entry.key) {
      continue;  // a later write of the same key wins
    }
    run.emplace_back(entry.key, entry.is_delete
                                    ? nullptr
                                    : std::make_shared<const std::string>(
                                          entry.value));
  }
  return run;
}

/// Cursor over delta-over-base. Holding both runs by shared_ptr keeps the
/// view alive for the iterator's lifetime.
class RunsIterator : public Iterator {
 public:
  RunsIterator(std::shared_ptr<const Run> base,
               std::shared_ptr<const Run> delta)
      : base_(std::move(base)), delta_(std::move(delta)) {}

  void Seek(std::string_view target) override {
    base_pos_ = LowerBound(*base_, target);
    delta_pos_ = LowerBound(*delta_, target);
    Settle();
  }

  void SeekToFirst() override {
    base_pos_ = 0;
    delta_pos_ = 0;
    Settle();
  }

  void Next() override {
    ++(from_delta_ ? delta_pos_ : base_pos_);
    Settle();
  }

  bool Valid() const override { return current_ != nullptr; }
  std::string_view key() const override { return current_->first; }
  std::string_view value() const override { return *current_->second; }

 private:
  // Points current_ at the smallest live entry at or past both cursors; a
  // delta entry shadows the base entry with the same key.
  void Settle() {
    for (;;) {
      const bool has_base = base_pos_ < base_->size();
      if (delta_pos_ == delta_->size()) {
        current_ = has_base ? &(*base_)[base_pos_] : nullptr;
        from_delta_ = false;
        return;
      }
      const Run::value_type& entry = (*delta_)[delta_pos_];
      if (has_base) {
        const std::string& base_key = (*base_)[base_pos_].first;
        if (base_key < entry.first) {
          current_ = &(*base_)[base_pos_];
          from_delta_ = false;
          return;
        }
        if (base_key == entry.first) ++base_pos_;
      }
      if (entry.second) {
        current_ = &entry;
        from_delta_ = true;
        return;
      }
      ++delta_pos_;  // tombstone
    }
  }

  std::shared_ptr<const Run> base_;
  std::shared_ptr<const Run> delta_;
  size_t base_pos_ = 0;
  size_t delta_pos_ = 0;
  const Run::value_type* current_ = nullptr;
  bool from_delta_ = false;
};

/// Immutable view: the two runs plus the version they were pinned at.
class MemKvSnapshot : public KvSnapshot {
 public:
  MemKvSnapshot(std::shared_ptr<const Run> base,
                std::shared_ptr<const Run> delta, uint64_t version)
      : base_(std::move(base)), delta_(std::move(delta)), version_(version) {}

  Result<std::string> Get(std::string_view key) const override {
    return Lookup(*base_, *delta_, key);
  }

  std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) const override {
    std::vector<Result<std::string>> results;
    results.reserve(keys.size());
    for (const std::string& key : keys) results.push_back(Get(key));
    return results;
  }

  std::unique_ptr<Iterator> NewIterator() const override {
    return std::make_unique<RunsIterator>(base_, delta_);
  }

  uint64_t version() const override { return version_; }

 private:
  std::shared_ptr<const Run> base_;
  std::shared_ptr<const Run> delta_;
  uint64_t version_;
};

}  // namespace

MemKv::Pinned MemKv::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  delta_pinned_ = true;
  return Pinned{base_, delta_, version_};
}

void MemKv::Install(std::shared_ptr<Run> base, std::shared_ptr<Run> delta,
                    bool bump_version) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_.swap(base);
    delta_.swap(delta);
    delta_pinned_ = false;
    if (bump_version) ++version_;
  }
  // `base` and `delta` now hold the replaced runs: unless a snapshot still
  // shares them, they are freed here, outside mu_.
}

void MemKv::Write(Run writes) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  // Only writers change base_/delta_, under write_mu_ (held here), so this
  // thread reads them below without mu_.
  if (writes.size() == 1) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!delta_pinned_) {
      Run& delta = *delta_;
      Run::value_type& write = writes.front();
      const size_t pos = LowerBound(delta, write.first);
      if (pos < delta.size() && delta[pos].first == write.first) {
        delta[pos].second = std::move(write.second);
      } else {
        delta.insert(delta.begin() + static_cast<ptrdiff_t>(pos),
                     std::move(write));
      }
      ++version_;
      if (!PastFoldFraction(delta.size(), base_->size())) return;
      lock.unlock();
      Install(std::make_shared<Run>(MergeRuns(*base_, delta, true)),
              std::make_shared<Run>(), /*bump_version=*/false);
      return;
    }
  }
  Run delta = MergeRuns(*delta_, std::move(writes), false);
  std::shared_ptr<Run> base = base_;
  if (PastFoldFraction(delta.size(), base->size())) {
    base = std::make_shared<Run>(MergeRuns(*base, std::move(delta), true));
    delta = Run();
  }
  Install(std::move(base), std::make_shared<Run>(std::move(delta)),
          /*bump_version=*/true);
}

Status MemKv::Put(std::string_view key, std::string_view value) {
  Run writes;
  writes.emplace_back(std::string(key),
                      std::make_shared<const std::string>(value));
  Write(std::move(writes));
  return Status::OK();
}

Status MemKv::Delete(std::string_view key) {
  Run writes;
  writes.emplace_back(std::string(key), nullptr);
  Write(std::move(writes));
  return Status::OK();
}

Status MemKv::ApplyBatch(const WriteBatch& batch) {
  Write(SortedWrites(batch));
  return Status::OK();
}

Result<std::string> MemKv::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(*base_, *delta_, key);
}

std::vector<Result<std::string>> MemKv::MultiGet(
    std::span<const std::string> keys) {
  std::vector<Result<std::string>> results;
  results.reserve(keys.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& key : keys) {
    results.push_back(Lookup(*base_, *delta_, key));
  }
  return results;
}

std::shared_ptr<const KvSnapshot> MemKv::GetSnapshot() {
  Pinned pinned = Pin();
  return std::make_shared<MemKvSnapshot>(
      std::move(pinned.base), std::move(pinned.delta), pinned.version);
}

uint64_t MemKv::version() {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::unique_ptr<Iterator> MemKv::NewIterator() {
  Pinned pinned = Pin();
  return std::make_unique<RunsIterator>(std::move(pinned.base),
                                        std::move(pinned.delta));
}

Result<uint64_t> MemKv::Count() {
  uint64_t count = 0;
  auto it = NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  return count;
}

Result<uint64_t> MemKv::ApproximateSizeBytes() {
  uint64_t total = 0;
  auto it = NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    total += it->key().size() + it->value().size();
  }
  return total;
}

}  // namespace dgf::kv
