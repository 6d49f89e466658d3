// Persistent key-value store backing the nameserver's mappings — the
// project's stand-in for LevelDB (§3.3.1).
//
// Design: an in-memory ordered map, made durable by a CRC-framed append-only
// write-ahead log plus periodic full snapshots. Like the paper's deployment
// advice, fsync is OFF by default (the nameserver treats the store as a
// restart accelerator, not the source of truth — after an unclean restart it
// rebuilds from the dataservers).
//
// On-disk layout under the store directory:
//   SNAPSHOT      full dump at the last compaction (may be absent)
//   WAL           records appended since that snapshot
//
// Record framing (both files): [u32 crc][u32 len][payload], crc over payload.
// Payload: u8 op (1=put, 2=del), varint key_len, key, varint val_len, value.
// Recovery replays SNAPSHOT then WAL, stopping at the first torn/corrupt
// record (crash-safe prefix semantics), and truncates the WAL to the end of
// the last valid record so new appends are not stranded behind the garbage.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mayflower::fs {

class KvStore {
 public:
  struct Options {
    bool fsync = false;            // paper default: off
    std::size_t compact_after = 4096;  // WAL records before auto-compaction
  };

  KvStore() = default;
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Opens (creating if needed) the store in `dir` and recovers state.
  // Returns false on unrecoverable I/O errors.
  bool open(const std::filesystem::path& dir, Options options);
  bool open(const std::filesystem::path& dir) { return open(dir, Options{}); }
  void close();
  bool is_open() const { return wal_ != nullptr; }

  bool put(const std::string& key, const std::string& value);
  bool erase(const std::string& key);
  std::optional<std::string> get(const std::string& key) const;
  bool contains(const std::string& key) const;

  // All (key, value) pairs whose key starts with `prefix`, key order.
  std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& prefix) const;

  std::size_t size() const { return map_.size(); }

  // Rewrites SNAPSHOT from memory and truncates the WAL.
  bool compact();

  // Telemetry.
  std::size_t wal_records() const { return wal_records_; }
  std::size_t recovered_records() const { return recovered_records_; }

 private:
  bool append_record(std::uint8_t op, const std::string& key,
                     const std::string& value);
  // Replays every valid record of `path`; returns the byte length of that
  // valid prefix (0 when the file is absent).
  std::uintmax_t replay_file(const std::filesystem::path& path);

  std::filesystem::path dir_;
  Options options_;
  std::map<std::string, std::string> map_;
  std::FILE* wal_ = nullptr;
  std::size_t wal_records_ = 0;
  std::size_t recovered_records_ = 0;
};

}  // namespace mayflower::fs
