#include "testing/lsm_crash_sweep.h"

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/random.h"
#include "common/temp_dir.h"
#include "fs/mini_dfs.h"
#include "kv/lsm_kv.h"
#include "testing/crash_point.h"

namespace dgf::testing {
namespace {

/// Crash points the sweep must reach, or the instrumentation has rotted.
constexpr const char* kRequiredPoints[] = {
    "lsm.flush.before_sstable",      "lsm.flush.after_sstable",
    "lsm.flush.before_manifest",     "lsm.flush.before_wal_truncate",
    "lsm.flush.after_wal_delete",    "lsm.compact.before_merge",
    "lsm.compact.after_merge",       "lsm.compact.before_delete_stale",
    "lsm.manifest.before_tmp",       "lsm.manifest.after_tmp",
    "lsm.manifest.before_rename",
};

struct Op {
  enum Kind { kPut, kDelete, kFlush, kCompact };
  Kind kind = kPut;
  std::string key;
  std::string value;
};

/// Seeded single-threaded workload over a ~40-key space, with periodic
/// explicit flushes and compactions on top of the size-triggered ones.
std::vector<Op> MakeWorkload(uint64_t seed, int num_ops) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 0xC4A5);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(num_ops) + 2);
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    if (i > 0 && i % 60 == 0) {
      op.kind = Op::kCompact;
    } else if (i > 0 && i % 25 == 0) {
      op.kind = Op::kFlush;
    } else {
      op.key = "k" + std::to_string(rng.Uniform(40));
      if (rng.Uniform(100) < 20) {
        op.kind = Op::kDelete;
      } else {
        op.kind = Op::kPut;
        op.value = "v" + std::to_string(i) + "-";
        op.value.append(8 + rng.Uniform(40), 'x');
      }
    }
    ops.push_back(std::move(op));
  }
  // Finish with a flush and a compaction so their boundaries are recorded as
  // part of the replayed op sequence (not as out-of-band teardown).
  ops.push_back(Op{Op::kFlush, {}, {}});
  ops.push_back(Op{Op::kCompact, {}, {}});
  return ops;
}

/// nullopt = reads NotFound (deleted or never written).
using OracleState = std::optional<std::string>;

std::string Render(const OracleState& state) {
  return state.has_value() ? *state : std::string("<absent>");
}

/// One schedule's store: a fresh LsmKv directory on the sweep's shared DFS,
/// with the shadow oracle of what the workload acknowledged.
class LsmCrashWorld : public CrashSweepWorld {
 public:
  static Result<std::unique_ptr<CrashSweepWorld>> Open(
      std::shared_ptr<fs::MiniDfs> dfs, std::string dir,
      const std::vector<Op>* ops) {
    std::unique_ptr<LsmCrashWorld> world(new LsmCrashWorld());
    world->dfs_ = std::move(dfs);
    world->dir_ = std::move(dir);
    world->ops_ = ops;
    DGF_ASSIGN_OR_RETURN(world->store_, world->OpenStore());
    return std::unique_ptr<CrashSweepWorld>(std::move(world));
  }

  /// Applies the ops in order; the op that fails (crashed mid-apply) is, if
  /// a mutation, in doubt: the store may legally hold its old or new state.
  Status Run() override {
    for (const Op& op : *ops_) {
      Status st;
      switch (op.kind) {
        case Op::kPut:
          st = store_->Put(op.key, op.value);
          break;
        case Op::kDelete:
          st = store_->Delete(op.key);
          break;
        case Op::kFlush:
          st = store_->Flush();
          break;
        case Op::kCompact:
          st = store_->Compact();
          break;
      }
      const OracleState new_state =
          op.kind == Op::kPut ? OracleState(op.value) : std::nullopt;
      const bool mutation = op.kind == Op::kPut || op.kind == Op::kDelete;
      if (st.ok()) {
        if (mutation) committed_[op.key] = new_state;
        continue;
      }
      if (mutation) {
        has_in_doubt_ = true;
        in_doubt_key_ = op.key;
        auto it = committed_.find(op.key);
        in_doubt_old_ = it == committed_.end() ? std::nullopt : it->second;
        in_doubt_new_ = new_state;
      }
      return st;
    }
    return Status::OK();
  }

  /// "Kills" the process (drops the store), reopens from disk, checks the
  /// oracle, then requires the store to stay fully usable: new writes, a
  /// flush, and a compaction (catches leaked run ids and stale files).
  Status Recover() override {
    store_.reset();
    DGF_ASSIGN_OR_RETURN(store_, OpenStore());
    DGF_RETURN_IF_ERROR(Verify());
    const Status post = [&]() -> Status {
      for (int i = 0; i < 12; ++i) {
        const std::string key = "post-" + std::to_string(i);
        const std::string value = "pv" + std::to_string(i);
        DGF_RETURN_IF_ERROR(store_->Put(key, value));
        committed_[key] = value;
      }
      DGF_RETURN_IF_ERROR(store_->Flush());
      return store_->Compact();
    }();
    if (!post.ok()) {
      return Status::Internal("store unusable after recovery: " +
                              post.ToString());
    }
    const Status after = Verify();
    if (!after.ok()) {
      return Status::Corruption("after post-recovery writes: " +
                                after.ToString());
    }
    return Status::OK();
  }

 private:
  LsmCrashWorld() = default;

  Result<std::unique_ptr<kv::LsmKv>> OpenStore() const {
    kv::LsmKv::Options kv_options;
    kv_options.dfs = dfs_;
    kv_options.dir = dir_;
    // Tiny memtable and run budget: the workload crosses flush, inline
    // compaction, and manifest boundaries many times over.
    kv_options.memtable_flush_bytes = 512;
    kv_options.max_runs = 2;
    return kv::LsmKv::Open(kv_options);
  }

  /// Checks the store against the shadow oracle. Resolves the in-doubt key
  /// to whichever legal state it landed in (folding it into `committed_`),
  /// then requires exact agreement including a no-phantom full scan.
  Status Verify() {
    if (has_in_doubt_) {
      OracleState observed;
      auto read = store_->Get(in_doubt_key_);
      if (read.ok()) {
        observed = *read;
      } else if (!read.status().IsNotFound()) {
        return read.status();
      }
      if (observed != in_doubt_old_ && observed != in_doubt_new_) {
        return Status::Corruption(
            "in-doubt key " + in_doubt_key_ + " reads " + Render(observed) +
            "; legal states are " + Render(in_doubt_old_) + " (old) / " +
            Render(in_doubt_new_) + " (new)");
      }
      committed_[in_doubt_key_] = observed;
      has_in_doubt_ = false;
    }
    for (const auto& [key, state] : committed_) {
      auto read = store_->Get(key);
      if (state.has_value()) {
        if (!read.ok()) {
          return Status::Corruption("acknowledged key " + key + " lost: " +
                                    read.status().ToString());
        }
        if (*read != *state) {
          return Status::Corruption("acknowledged key " + key + " reads " +
                                    *read + ", expected " + *state);
        }
      } else {
        if (read.ok()) {
          return Status::Corruption("deleted key " + key +
                                    " resurrected as " + *read);
        }
        if (!read.status().IsNotFound()) return read.status();
      }
    }
    std::map<std::string, std::string> live;
    for (const auto& [key, state] : committed_) {
      if (state.has_value()) live[key] = *state;
    }
    size_t seen = 0;
    auto it = store_->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      auto found = live.find(std::string(it->key()));
      if (found == live.end()) {
        return Status::Corruption("phantom key in scan: " +
                                  std::string(it->key()));
      }
      if (found->second != it->value()) {
        return Status::Corruption("scan value mismatch for " + found->first);
      }
      ++seen;
    }
    if (seen != live.size()) {
      return Status::Corruption("scan saw " + std::to_string(seen) + " of " +
                                std::to_string(live.size()) + " live keys");
    }
    return Status::OK();
  }

  std::shared_ptr<fs::MiniDfs> dfs_;
  std::string dir_;
  const std::vector<Op>* ops_ = nullptr;
  std::unique_ptr<kv::LsmKv> store_;
  std::map<std::string, OracleState> committed_;
  bool has_in_doubt_ = false;
  std::string in_doubt_key_;
  OracleState in_doubt_old_;
  OracleState in_doubt_new_;
};

}  // namespace

Result<CrashSweepReport> RunLsmCrashSweep(const CrashSweepOptions& options) {
  const TempDir root("dgf_crashsweep");
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root.string();
  dfs_options.block_size = 1 << 20;
  DGF_ASSIGN_OR_RETURN(std::shared_ptr<fs::MiniDfs> dfs,
                       fs::MiniDfs::Open(dfs_options));
  const std::vector<Op> ops = MakeWorkload(options.seed, options.num_ops);

  CrashSweep sweep;
  sweep.required_points.assign(std::begin(kRequiredPoints),
                               std::end(kRequiredPoints));
  sweep.max_occurrences_per_point = options.max_occurrences_per_point;
  sweep.repro = " [repro: dgf_difftest --crash-sweep --seed=" +
                std::to_string(options.seed) + "]";
  sweep.verbose = options.verbose;
  int worlds = 0;
  sweep.make_world = [&] {
    // Every world gets its own store directory on the one DFS.
    return LsmCrashWorld::Open(dfs, "/world-" + std::to_string(worlds++),
                               &ops);
  };
  return RunCrashSweep(sweep);
}

}  // namespace dgf::testing
