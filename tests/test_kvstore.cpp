#include "fs/kv/kvstore.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "common/strings.hpp"

namespace mayflower::fs {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() {
    dir_ = std::filesystem::temp_directory_path() /
           strfmt("mayflower-kv-test-%d-%s", static_cast<int>(::getpid()),
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  ~KvStoreTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(KvStoreTest, PutGetErase) {
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_TRUE(kv.put("a", "1"));
  EXPECT_TRUE(kv.put("b", "2"));
  EXPECT_EQ(kv.get("a"), "1");
  EXPECT_EQ(kv.get("b"), "2");
  EXPECT_FALSE(kv.get("c").has_value());
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.get("a").has_value());
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, OverwriteKeepsLatestValue) {
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  kv.put("k", "v1");
  kv.put("k", "v2");
  EXPECT_EQ(kv.get("k"), "v2");
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, SurvivesCloseAndReopen) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    kv.put("file/alpha", "meta-a");
    kv.put("file/beta", "meta-b");
    kv.erase("file/alpha");
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.recovered_records(), 3u);  // two puts + one delete replayed
  EXPECT_FALSE(kv.get("file/alpha").has_value());
  EXPECT_EQ(kv.get("file/beta"), "meta-b");
}

TEST_F(KvStoreTest, ScanPrefixIsOrderedAndBounded) {
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  kv.put("f/c", "3");
  kv.put("f/a", "1");
  kv.put("g/x", "9");
  kv.put("f/b", "2");
  const auto rows = kv.scan_prefix("f/");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "f/a");
  EXPECT_EQ(rows[1].first, "f/b");
  EXPECT_EQ(rows[2].first, "f/c");
  EXPECT_TRUE(kv.scan_prefix("zzz").empty());
}

TEST_F(KvStoreTest, CompactionPreservesStateAndTruncatesWal) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    for (int i = 0; i < 100; ++i) {
      kv.put(strfmt("key%03d", i), strfmt("val%d", i));
    }
    EXPECT_TRUE(kv.compact());
    EXPECT_EQ(kv.wal_records(), 0u);
    kv.put("post-compact", "x");
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.size(), 101u);
  EXPECT_EQ(kv.get("key042"), "val42");
  EXPECT_EQ(kv.get("post-compact"), "x");
}

TEST_F(KvStoreTest, AutoCompactionAfterThreshold) {
  KvStore::Options options;
  options.compact_after = 10;
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_, options));
  for (int i = 0; i < 25; ++i) kv.put(strfmt("k%d", i), "v");
  // At least two compactions happened; WAL stays short.
  EXPECT_LT(kv.wal_records(), 10u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "SNAPSHOT"));
  EXPECT_EQ(kv.size(), 25u);
}

TEST_F(KvStoreTest, TornWalTailIsDiscardedButPrefixSurvives) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    kv.put("good1", "a");
    kv.put("good2", "b");
  }
  // Simulate a crash mid-write: append garbage that parses as a header but
  // fails the CRC.
  {
    std::ofstream wal(dir_ / "WAL", std::ios::binary | std::ios::app);
    const char garbage[] = "\x11\x22\x33\x44\x05\x00\x00\x00xy";
    wal.write(garbage, sizeof garbage - 1);
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.get("good1"), "a");
  EXPECT_EQ(kv.get("good2"), "b");
  EXPECT_EQ(kv.size(), 2u);
  // The store stays writable after recovery.
  EXPECT_TRUE(kv.put("after", "c"));
}

TEST_F(KvStoreTest, PutAfterTornTailSurvivesTheNextReopen) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    kv.put("before", "a");
  }
  {
    std::ofstream wal(dir_ / "WAL", std::ios::binary | std::ios::app);
    const char garbage[] = "\x11\x22\x33\x44\x05\x00\x00\x00xy";
    wal.write(garbage, sizeof garbage - 1);
  }
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    ASSERT_TRUE(kv.put("after", "b"));  // acknowledged: must be durable
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.get("before"), "a");
  EXPECT_EQ(kv.get("after"), "b");
  EXPECT_EQ(kv.size(), 2u);
}

TEST_F(KvStoreTest, CorruptMiddleRecordStopsReplayAtIt) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    kv.put("first", "1");
    kv.put("second", "2");
    kv.put("third", "3");
  }
  // Flip a byte inside the second record's payload.
  {
    std::fstream wal(dir_ / "WAL",
                     std::ios::binary | std::ios::in | std::ios::out);
    wal.seekp(30);
    wal.put('\xff');
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  // Crash-consistent prefix: everything from the corrupt record on is gone.
  EXPECT_LE(kv.size(), 2u);
  EXPECT_EQ(kv.get("first").has_value() || kv.size() == 0, true);
}

TEST_F(KvStoreTest, EmptyValueAndBinaryKeysRoundTrip) {
  std::string binary_key("\x00\x01\xffkey", 7);
  std::string binary_val("\xde\xad\xbe\xef", 4);
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    kv.put(binary_key, binary_val);
    kv.put("empty", "");
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.get(binary_key), binary_val);
  EXPECT_EQ(kv.get("empty"), "");
}

TEST_F(KvStoreTest, ScanOrderDeterministicAcrossReopenAndCompaction) {
  // The metadata shards enumerate their slice with scan_prefix; list RPC
  // determinism rests on the iteration order being a pure function of the
  // key set, not of insertion order, reopen, or compaction history.
  const char* keys[] = {"f/m", "f/a", "f/z", "f/k", "f/b"};
  std::vector<std::string> first_order;
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    for (const char* k : keys) kv.put(k, "v");
    for (const auto& [key, value] : kv.scan_prefix("f/")) {
      first_order.push_back(key);
    }
    ASSERT_TRUE(std::is_sorted(first_order.begin(), first_order.end()));
    EXPECT_TRUE(kv.compact());
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  std::vector<std::string> reopened_order;
  for (const auto& [key, value] : kv.scan_prefix("f/")) {
    reopened_order.push_back(key);
  }
  EXPECT_EQ(first_order, reopened_order);
}

TEST_F(KvStoreTest, EraseMissingWritesNoWalRecord) {
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  kv.put("present", "v");
  const std::uint64_t wal_before = kv.wal_records();
  EXPECT_FALSE(kv.erase("absent"));
  EXPECT_EQ(kv.wal_records(), wal_before);  // no tombstone for a miss
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.get("present"), "v");
}

TEST_F(KvStoreTest, RepeatedOverwriteKeepsOnlyLatestAfterReopen) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.open(dir_));
    for (int i = 0; i < 20; ++i) kv.put("hot", strfmt("v%d", i));
  }
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.get("hot"), "v19");
}

TEST_F(KvStoreTest, FsyncModeWorks) {
  KvStore::Options options;
  options.fsync = true;
  KvStore kv;
  ASSERT_TRUE(kv.open(dir_, options));
  EXPECT_TRUE(kv.put("durable", "yes"));
  EXPECT_EQ(kv.get("durable"), "yes");
}

}  // namespace
}  // namespace mayflower::fs
