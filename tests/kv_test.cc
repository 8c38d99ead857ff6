#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "kv/lsm_kv.h"
#include "kv/mem_kv.h"
#include "kv/sstable.h"
#include "tests/test_util.h"

namespace dgf::kv {
namespace {

using ::dgf::testing::ScopedDfs;

// ---------- Shared conformance suite over both KvStore implementations ----

enum class StoreKind { kMem, kLsm };

struct StoreFixture {
  std::unique_ptr<ScopedDfs> dfs;
  std::unique_ptr<KvStore> store;
};

StoreFixture MakeStore(StoreKind kind, const std::string& tag) {
  StoreFixture fixture;
  if (kind == StoreKind::kMem) {
    fixture.store = std::make_unique<MemKv>();
    return fixture;
  }
  fixture.dfs = std::make_unique<ScopedDfs>("kv_" + tag);
  LsmKv::Options options;
  options.dfs = fixture.dfs->get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 256;  // tiny: force multi-run behaviour
  options.max_runs = 3;
  auto store = LsmKv::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  fixture.store = std::move(*store);
  return fixture;
}

class KvConformanceTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(KvConformanceTest, PutGetOverwrite) {
  auto fixture = MakeStore(GetParam(), "pgo");
  auto& store = *fixture.store;
  ASSERT_OK(store.Put("a", "1"));
  ASSERT_OK(store.Put("b", "2"));
  ASSERT_OK(store.Put("a", "3"));
  EXPECT_EQ(*store.Get("a"), "3");
  EXPECT_EQ(*store.Get("b"), "2");
  EXPECT_TRUE(store.Get("c").status().IsNotFound());
}

TEST_P(KvConformanceTest, DeleteHidesKey) {
  auto fixture = MakeStore(GetParam(), "del");
  auto& store = *fixture.store;
  ASSERT_OK(store.Put("k", "v"));
  ASSERT_OK(store.Delete("k"));
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  ASSERT_OK(store.Put("k", "v2"));
  EXPECT_EQ(*store.Get("k"), "v2");
}

TEST_P(KvConformanceTest, IteratorScansInOrder) {
  auto fixture = MakeStore(GetParam(), "scan");
  auto& store = *fixture.store;
  for (int i = 99; i >= 0; --i) {
    ASSERT_OK(store.Put(StringPrintf("key%03d", i), std::to_string(i)));
  }
  auto it = store.NewIterator();
  int count = 0;
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_GT(std::string(it->key()), prev);
    prev = std::string(it->key());
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST_P(KvConformanceTest, SeekFindsLowerBound) {
  auto fixture = MakeStore(GetParam(), "seek");
  auto& store = *fixture.store;
  ASSERT_OK(store.Put("b", "1"));
  ASSERT_OK(store.Put("d", "2"));
  ASSERT_OK(store.Put("f", "3"));
  auto it = store.NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("f");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "f");
  it->Seek("g");
  EXPECT_FALSE(it->Valid());
}

TEST_P(KvConformanceTest, CountMatchesLiveKeys) {
  auto fixture = MakeStore(GetParam(), "count");
  auto& store = *fixture.store;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(store.Put("k" + std::to_string(i), "v"));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(store.Delete("k" + std::to_string(i)));
  }
  EXPECT_EQ(*store.Count(), 40u);
}

TEST_P(KvConformanceTest, RandomizedAgainstStdMap) {
  auto fixture = MakeStore(GetParam(), "rand");
  auto& store = *fixture.store;
  std::map<std::string, std::string> model;
  Random rng(2024);
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(200));
    if (rng.Uniform(4) == 0) {
      ASSERT_OK(store.Delete(key));
      model.erase(key);
    } else {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_OK(store.Put(key, value));
      model[key] = value;
    }
  }
  // Point lookups agree.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto got = store.Get(key);
    auto want = model.find(key);
    if (want == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, want->second) << key;
    }
  }
  // Full scan agrees.
  auto it = store.NewIterator();
  auto want = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
    ASSERT_NE(want, model.end());
    EXPECT_EQ(it->key(), want->first);
    EXPECT_EQ(it->value(), want->second);
  }
  EXPECT_EQ(want, model.end());
}

TEST_P(KvConformanceTest, MultiGetMixedKeys) {
  auto fixture = MakeStore(GetParam(), "mget");
  auto& store = *fixture.store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(store.Put(StringPrintf("key%03d", i), "v" + std::to_string(i)));
  }
  ASSERT_OK(store.Delete("key042"));

  const std::vector<std::string> keys = {"key000", "key042", "missing",
                                         "key099", "key007", "key007"};
  auto results = store.MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_EQ(*results[0], "v0");
  EXPECT_TRUE(results[1].status().IsNotFound());  // deleted
  EXPECT_TRUE(results[2].status().IsNotFound());  // never written
  EXPECT_EQ(*results[3], "v99");
  EXPECT_EQ(*results[4], "v7");  // duplicates each get an answer
  EXPECT_EQ(*results[5], "v7");
}

TEST_P(KvConformanceTest, MultiGetEmptyBatch) {
  auto fixture = MakeStore(GetParam(), "mget0");
  EXPECT_TRUE(fixture.store->MultiGet({}).empty());
}

TEST_P(KvConformanceTest, MultiGetMatchesGetRandomized) {
  auto fixture = MakeStore(GetParam(), "mgetr");
  auto& store = *fixture.store;
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int op = 0; op < 1500; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Uniform(5) == 0) {
      ASSERT_OK(store.Delete(key));
      model.erase(key);
    } else {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_OK(store.Put(key, value));
      model[key] = value;
    }
  }
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("k" + std::to_string(i));
  auto results = store.MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto want = model.find(keys[i]);
    if (want == model.end()) {
      EXPECT_TRUE(results[i].status().IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE(results[i].ok()) << keys[i];
      EXPECT_EQ(*results[i], want->second) << keys[i];
    }
  }
}

// Checks `snapshot` against `model` through Get and MultiGet over the keys
// k0..k<key_space - 1>, a full scan, and a Seek to `seek_target`.
void ExpectSnapshotMatches(const KvSnapshot& snapshot,
                           const std::map<std::string, std::string>& model,
                           int key_space, const std::string& seek_target) {
  std::vector<std::string> keys;
  for (int i = 0; i < key_space; ++i) keys.push_back("k" + std::to_string(i));
  auto multi = snapshot.MultiGet(keys);
  ASSERT_EQ(multi.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto got = snapshot.Get(keys[i]);
    auto want = model.find(keys[i]);
    if (want == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << keys[i];
      EXPECT_TRUE(multi[i].status().IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE(got.ok()) << keys[i] << ": " << got.status().ToString();
      EXPECT_EQ(*got, want->second) << keys[i];
      ASSERT_TRUE(multi[i].ok()) << keys[i];
      EXPECT_EQ(*multi[i], want->second) << keys[i];
    }
  }
  auto it = snapshot.NewIterator();
  auto want = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
    ASSERT_NE(want, model.end());
    EXPECT_EQ(it->key(), want->first);
    EXPECT_EQ(it->value(), want->second);
  }
  EXPECT_EQ(want, model.end());
  it->Seek(seek_target);
  auto bound = model.lower_bound(seek_target);
  if (bound == model.end()) {
    EXPECT_FALSE(it->Valid()) << seek_target;
  } else {
    ASSERT_TRUE(it->Valid()) << seek_target;
    EXPECT_EQ(it->key(), bound->first) << seek_target;
  }
}

// Snapshots pinned between overwrites, deletes, batches, folds (MemKv) and
// flushes/compactions (LsmKv) keep showing the std::map copied at pin time.
TEST_P(KvConformanceTest, SnapshotIsolatedFromLaterWrites) {
  auto fixture = MakeStore(GetParam(), "snap");
  auto& store = *fixture.store;
  constexpr int kKeys = 300;
  struct Pin {
    std::shared_ptr<const KvSnapshot> snapshot;
    std::map<std::string, std::string> model;
    uint64_t version;
  };
  std::vector<Pin> pins;
  std::map<std::string, std::string> model;
  Random rng(31);
  auto random_key = [&] { return "k" + std::to_string(rng.Uniform(kKeys)); };
  auto random_value = [&] { return "v" + std::to_string(rng.Next() % 100000); };
  auto check_pins = [&] {
    for (const Pin& pin : pins) {
      EXPECT_EQ(pin.snapshot->version(), pin.version);
      ExpectSnapshotMatches(*pin.snapshot, pin.model, kKeys, random_key());
    }
  };

  for (int op = 0; op < 3000; ++op) {
    const uint64_t choice = rng.Uniform(10);
    if (choice < 5) {
      const std::string key = random_key();
      const std::string value = random_value();
      ASSERT_OK(store.Put(key, value));
      model[key] = value;
    } else if (choice < 7) {
      const std::string key = random_key();
      ASSERT_OK(store.Delete(key));
      model.erase(key);
    } else {
      // Up to 40 writes; keys repeat within a batch and the last one wins.
      WriteBatch batch;
      const uint64_t writes = 1 + rng.Uniform(40);
      for (uint64_t i = 0; i < writes; ++i) {
        const std::string key = random_key();
        if (rng.Uniform(4) == 0) {
          batch.Delete(key);
          model.erase(key);
        } else {
          const std::string value = random_value();
          batch.Put(key, value);
          model[key] = value;
        }
      }
      const uint64_t before = store.version();
      ASSERT_OK(store.ApplyBatch(batch));
      EXPECT_EQ(store.version(), before + 1);
    }
    if (op % 50 == 0) {
      const uint64_t version = store.version();
      pins.push_back({store.GetSnapshot(), model, version});
    }
    if (op % 500 == 499) check_pins();
  }

  // A batch that writes one key twice, and one that puts then deletes a key
  // (and deletes then puts another).
  const uint64_t version = store.version();
  pins.push_back({store.GetSnapshot(), model, version});
  WriteBatch twice;
  twice.Put("k_twice", "first");
  twice.Put("k_twice", "second");
  ASSERT_OK(store.ApplyBatch(twice));
  model["k_twice"] = "second";
  EXPECT_EQ(*store.Get("k_twice"), "second");
  pins.push_back({store.GetSnapshot(), model, version + 1});

  WriteBatch flip;
  flip.Put("k_gone", "x");
  flip.Delete("k_gone");
  flip.Delete("k_twice");
  flip.Put("k_twice", "third");
  ASSERT_OK(store.ApplyBatch(flip));
  model["k_twice"] = "third";
  EXPECT_TRUE(store.Get("k_gone").status().IsNotFound());
  EXPECT_EQ(*store.Get("k_twice"), "third");
  EXPECT_EQ(store.version(), version + 2);
  pins.push_back({store.GetSnapshot(), model, version + 2});

  for (size_t i = 1; i < pins.size(); ++i) {
    EXPECT_LE(pins[i - 1].version, pins[i].version);
  }
  check_pins();
}

// Readers racing an appender see each batch entirely or not at all: batch b
// sets every "c" key to b and swaps the one marker key "n<b-1>" for "n<b>",
// so a torn view shows mixed values or zero or two markers. Each publish
// bumps the version once, so the version pins the batch a snapshot shows.
TEST_P(KvConformanceTest, ConcurrentSnapshotsSeeWholeBatches) {
  auto fixture = MakeStore(GetParam(), "atomic");
  auto& store = *fixture.store;
  constexpr int kKeys = 16;
  constexpr int kBatches = 200;
  auto apply = [&](int b) {
    WriteBatch batch;
    const std::string value = StringPrintf("%06d", b);
    for (int i = 0; i < kKeys; ++i) batch.Put(StringPrintf("c%02d", i), value);
    if (b > 0) batch.Delete(StringPrintf("n%06d", b - 1));
    batch.Put(StringPrintf("n%06d", b), value);
    return store.ApplyBatch(batch);
  };
  ASSERT_OK(apply(0));
  const uint64_t first_version = store.version();

  // Returns a description of the first torn view this reader saw.
  std::atomic<bool> done{false};
  auto reader = [&]() -> std::string {
    uint64_t last_version = 0;
    int views = 0;
    while (!done.load() || views == 0) {
      auto snapshot = store.GetSnapshot();
      const uint64_t version = snapshot->version();
      if (version < last_version) return "version went backwards";
      last_version = version;
      const std::string want =
          StringPrintf("%06d", static_cast<int>(version - first_version));
      int c_keys = 0;
      std::vector<std::string> markers;
      auto it = snapshot->NewIterator();
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (it->value() != want) {
          return "v" + std::to_string(version) + ": " +
                 std::string(it->key()) + "=" + std::string(it->value()) +
                 " want " + want;
        }
        if (it->key()[0] == 'c') ++c_keys;
        if (it->key()[0] == 'n') markers.emplace_back(it->key());
      }
      if (c_keys != kKeys || markers.size() != 1 || markers[0] != "n" + want) {
        return "v" + std::to_string(version) + ": " + std::to_string(c_keys) +
               " c keys, " + std::to_string(markers.size()) + " markers";
      }
      auto marker = snapshot->Get("n" + want);
      if (!marker.ok() || *marker != want) return "marker Get disagrees";
      ++views;
    }
    return "";
  };
  std::string torn[2];
  std::thread readers[2];
  for (int r = 0; r < 2; ++r) {
    readers[r] = std::thread([&, r] { torn[r] = reader(); });
  }
  Status applied;
  for (int b = 1; b < kBatches && applied.ok(); ++b) applied = apply(b);
  done.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_OK(applied);
  EXPECT_EQ(torn[0], "");
  EXPECT_EQ(torn[1], "");
  EXPECT_EQ(store.version(), first_version + kBatches - 1);
}

INSTANTIATE_TEST_SUITE_P(AllStores, KvConformanceTest,
                         ::testing::Values(StoreKind::kMem, StoreKind::kLsm),
                         [](const auto& info) {
                           return info.param == StoreKind::kMem ? "MemKv"
                                                                : "LsmKv";
                         });

// ---------- SSTable-specific tests ----------

TEST(SstableTest, WriteReadRoundTrip) {
  ScopedDfs dfs("sst_rt");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "value" + std::to_string(i)));
  }
  ASSERT_OK(writer->Finish());

  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));
  EXPECT_EQ(reader->num_records(), 100u);
  bool deleted = false;
  EXPECT_EQ(*reader->Get("k042", &deleted), "value42");
  EXPECT_FALSE(deleted);
  EXPECT_TRUE(reader->Get("nope", &deleted).status().IsNotFound());
  EXPECT_TRUE(reader->Get("k0425", &deleted).status().IsNotFound());
}

TEST(SstableTest, RejectsOutOfOrderKeys) {
  ScopedDfs dfs("sst_order");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  ASSERT_OK(writer->Add("b", "1"));
  EXPECT_FALSE(writer->Add("a", "2").ok());
  EXPECT_FALSE(writer->Add("b", "dup").ok());
}

TEST(SstableTest, TombstonesSurfaceInGet) {
  ScopedDfs dfs("sst_tomb");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  ASSERT_OK(writer->Add("dead", "", /*tombstone=*/true));
  ASSERT_OK(writer->Add("live", "v"));
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));
  bool deleted = false;
  ASSERT_OK(reader->Get("dead", &deleted).status());
  EXPECT_TRUE(deleted);
  EXPECT_EQ(*reader->Get("live", &deleted), "v");
  EXPECT_FALSE(deleted);
}

TEST(SstableTest, MultiGetMergeJoinOverRun) {
  ScopedDfs dfs("sst_mget");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  for (int i = 0; i < 200; ++i) {
    if (i == 150) {
      ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "", /*tombstone=*/true));
    } else {
      ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "v" + std::to_string(i)));
    }
  }
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));

  // Sorted batch spanning found / tombstone / absent keys plus a duplicate.
  const std::vector<std::string_view> keys = {"aaa",  "k000", "k000", "k017",
                                              "k150", "k199", "zzz"};
  ASSERT_OK_AND_ASSIGN(auto probes, reader->MultiGet(keys));
  ASSERT_EQ(probes.size(), keys.size());
  using State = SstableReader::ProbeResult;
  EXPECT_EQ(probes[0].state, State::kAbsent);
  EXPECT_EQ(probes[1].state, State::kFound);
  EXPECT_EQ(probes[1].value, "v0");
  EXPECT_EQ(probes[2].state, State::kFound);  // duplicate key re-resolved
  EXPECT_EQ(probes[2].value, "v0");
  EXPECT_EQ(probes[3].state, State::kFound);
  EXPECT_EQ(probes[3].value, "v17");
  EXPECT_EQ(probes[4].state, State::kTombstone);
  EXPECT_EQ(probes[5].state, State::kFound);
  EXPECT_EQ(probes[5].value, "v199");
  EXPECT_EQ(probes[6].state, State::kAbsent);

  EXPECT_TRUE(reader->MultiGet({})->empty());
}

TEST(SstableTest, CorruptMagicRejected) {
  ScopedDfs dfs("sst_corrupt");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/junk.sst"));
  ASSERT_OK(writer->Append(std::string(64, 'q')));
  ASSERT_OK(writer->Close());
  EXPECT_TRUE(SstableReader::Open(dfs.get(), "/junk.sst").status().IsCorruption());
}

// ---------- LSM-specific tests ----------

TEST(LsmKvTest, FlushCreatesRunsAndCompactionBoundsThem) {
  ScopedDfs dfs("lsm_runs");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 128;
  options.max_runs = 2;
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(store->Put(StringPrintf("key%04d", i), std::string(16, 'v')));
  }
  EXPECT_LE(store->NumRuns(), options.max_runs + 1);
  EXPECT_EQ(*store->Count(), 500u);
}

TEST(LsmKvTest, RecoversFromWalAndRuns) {
  ScopedDfs dfs("lsm_recover");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 200;
  {
    ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(store->Put(StringPrintf("key%03d", i), std::to_string(i)));
    }
    ASSERT_OK(store->Delete("key050"));
    // No explicit flush/close: destructor just closes the WAL handle.
  }
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  EXPECT_EQ(*store->Get("key099"), "99");
  EXPECT_TRUE(store->Get("key050").status().IsNotFound());
  EXPECT_EQ(*store->Count(), 99u);
}

TEST(LsmKvTest, CompactMergesToSingleRun) {
  ScopedDfs dfs("lsm_compact");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 100;
  options.max_runs = 100;  // no automatic compaction
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(store->Put(StringPrintf("key%04d", i % 50), std::to_string(i)));
  }
  ASSERT_OK(store->Delete("key0000"));
  ASSERT_OK(store->Compact());
  EXPECT_EQ(store->NumRuns(), 1);
  EXPECT_EQ(*store->Count(), 49u);
  EXPECT_TRUE(store->Get("key0000").status().IsNotFound());
  // Newest value wins after merge: key0001 was last written at i=251.
  EXPECT_EQ(*store->Get("key0001"), "251");
}

TEST(LsmKvTest, ApproximateSizeGrowsWithData) {
  ScopedDfs dfs("lsm_size");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  ASSERT_OK_AND_ASSIGN(uint64_t empty, store->ApproximateSizeBytes());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(store->Put("key" + std::to_string(i), std::string(100, 'x')));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t full, store->ApproximateSizeBytes());
  EXPECT_GT(full, empty + 100 * 100);
}

}  // namespace
}  // namespace dgf::kv
