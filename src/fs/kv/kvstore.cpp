#include "fs/kv/kvstore.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"

namespace mayflower::fs {
namespace {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpDel = 2;

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool get_varint(const std::string& in, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (pos < in.size() && shift <= 63) {
    const auto byte = static_cast<std::uint8_t>(in[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

std::string encode_payload(std::uint8_t op, const std::string& key,
                           const std::string& value) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  put_varint(payload, key.size());
  payload.append(key);
  put_varint(payload, value.size());
  payload.append(value);
  return payload;
}

bool write_record(std::FILE* f, const std::string& payload, bool fsync) {
  const std::uint32_t crc = crc32(payload);
  const auto len = static_cast<std::uint32_t>(payload.size());
  if (std::fwrite(&crc, sizeof crc, 1, f) != 1) return false;
  if (std::fwrite(&len, sizeof len, 1, f) != 1) return false;
  if (!payload.empty() &&
      std::fwrite(payload.data(), payload.size(), 1, f) != 1) {
    return false;
  }
  if (std::fflush(f) != 0) return false;
  if (fsync) {
    // fileno+fsync: with fsync_dir below, the only places the store touches
    // POSIX directly.
    ::fsync(::fileno(f));
  }
  return true;
}

// Makes a rename inside `dir` durable.
void fsync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

KvStore::~KvStore() { close(); }

bool KvStore::open(const std::filesystem::path& dir, Options options) {
  MAYFLOWER_ASSERT_MSG(!is_open(), "store already open");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    MAYFLOWER_LOG_ERROR("kv: cannot create %s: %s", dir.c_str(),
                        ec.message().c_str());
    return false;
  }
  dir_ = dir;
  options_ = options;
  map_.clear();
  recovered_records_ = 0;

  replay_file(dir_ / "SNAPSHOT");
  // A torn tail stays on disk after replay stops at it; appending behind it
  // would put every new record past the point the next replay stops at.
  const std::filesystem::path wal = dir_ / "WAL";
  const std::uintmax_t valid = replay_file(wal);
  if (std::filesystem::exists(wal, ec) &&
      std::filesystem::file_size(wal, ec) != valid) {
    std::filesystem::resize_file(wal, valid, ec);
    if (ec) {
      MAYFLOWER_LOG_ERROR("kv: cannot truncate WAL in %s: %s", dir_.c_str(),
                          ec.message().c_str());
      return false;
    }
  }

  wal_ = std::fopen((dir_ / "WAL").c_str(), "ab");
  if (wal_ == nullptr) {
    MAYFLOWER_LOG_ERROR("kv: cannot open WAL in %s", dir_.c_str());
    return false;
  }
  wal_records_ = 0;
  return true;
}

void KvStore::close() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
}

std::uintmax_t KvStore::replay_file(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;  // absent is fine
  std::uintmax_t valid = 0;
  while (true) {
    std::uint32_t crc = 0;
    std::uint32_t len = 0;
    if (std::fread(&crc, sizeof crc, 1, f) != 1) break;
    if (std::fread(&len, sizeof len, 1, f) != 1) break;       // torn header
    if (len > (64u << 20)) break;                             // implausible
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), len, 1, f) != 1) break;
    if (crc32(payload) != crc) break;                         // torn/corrupt

    std::size_t pos = 0;
    if (payload.empty()) break;
    const auto op = static_cast<std::uint8_t>(payload[pos++]);
    std::uint64_t klen = 0;
    if (!get_varint(payload, pos, klen) || pos + klen > payload.size()) break;
    std::string key = payload.substr(pos, klen);
    pos += klen;
    std::uint64_t vlen = 0;
    if (!get_varint(payload, pos, vlen) || pos + vlen > payload.size()) break;
    std::string value = payload.substr(pos, vlen);

    if (op == kOpPut) {
      map_[std::move(key)] = std::move(value);
    } else if (op == kOpDel) {
      map_.erase(key);
    } else {
      break;  // unknown op: treat as corruption
    }
    ++recovered_records_;
    valid += sizeof crc + sizeof len + len;
  }
  std::fclose(f);
  return valid;
}

bool KvStore::append_record(std::uint8_t op, const std::string& key,
                            const std::string& value) {
  MAYFLOWER_ASSERT_MSG(is_open(), "store not open");
  if (!write_record(wal_, encode_payload(op, key, value), options_.fsync)) {
    return false;
  }
  if (++wal_records_ >= options_.compact_after) {
    compact();
  }
  return true;
}

bool KvStore::put(const std::string& key, const std::string& value) {
  if (!append_record(kOpPut, key, value)) return false;
  map_[key] = value;
  return true;
}

bool KvStore::erase(const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  if (!append_record(kOpDel, key, std::string())) return false;
  map_.erase(it);
  return true;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool KvStore::contains(const std::string& key) const {
  return map_.find(key) != map_.end();
}

std::vector<std::pair<std::string, std::string>> KvStore::scan_prefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = map_.lower_bound(prefix); it != map_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

bool KvStore::compact() {
  MAYFLOWER_ASSERT_MSG(is_open(), "store not open");
  const std::filesystem::path tmp = dir_ / "SNAPSHOT.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  for (const auto& [key, value] : map_) {
    if (!write_record(f, encode_payload(kOpPut, key, value), false)) {
      std::fclose(f);
      return false;
    }
  }
  if (options_.fsync) ::fsync(::fileno(f));
  std::fclose(f);

  std::error_code ec;
  std::filesystem::rename(tmp, dir_ / "SNAPSHOT", ec);
  if (ec) return false;
  if (options_.fsync) fsync_dir(dir_);

  // Truncate the WAL now that the snapshot covers everything.
  std::fclose(wal_);
  wal_ = std::fopen((dir_ / "WAL").c_str(), "wb");
  wal_records_ = 0;
  return wal_ != nullptr;
}

}  // namespace mayflower::fs
