#include "fs/data.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace mayflower::fs {
namespace {

// Pattern byte at absolute stream position i: cheap, stateless, and stable
// across slicing (the property appends/reads rely on for verification).
// Byte i is byte (i mod 8) of the little-endian word splitmix64(seed ^ i/8).
std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t word = splitmix64(seed ^ (i >> 3));
  return static_cast<std::uint8_t>(word >> ((i & 7) * 8));
}

// Writes pattern bytes [pos, pos + n) to `out`: one splitmix64 per whole
// word, byte by byte only for a partial word at either end.
void fill_pattern(std::uint64_t seed, std::uint64_t pos, std::uint8_t* out,
                  std::size_t n) {
  std::size_t i = 0;
  for (; i < n && (pos & 7) != 0; ++i, ++pos) out[i] = pattern_byte(seed, pos);
  for (; n - i >= 8; i += 8, pos += 8) {
    const std::uint64_t word = splitmix64(seed ^ (pos >> 3));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out + i, &word, sizeof word);
    } else {
      for (unsigned b = 0; b < 8; ++b) {
        out[i + b] = static_cast<std::uint8_t>(word >> (b * 8));
      }
    }
  }
  for (; i < n; ++i, ++pos) out[i] = pattern_byte(seed, pos);
}

}  // namespace

Extent Extent::from_bytes(std::string bytes) {
  Extent e;
  e.kind_ = Kind::kInline;
  e.inline_bytes_ = std::move(bytes);
  return e;
}

Extent Extent::pattern(std::uint64_t seed, std::uint64_t size,
                       std::uint64_t offset) {
  Extent e;
  e.kind_ = Kind::kPattern;
  e.seed_ = seed;
  e.offset_ = offset;
  e.size_ = size;
  return e;
}

std::uint64_t Extent::size() const {
  return kind_ == Kind::kInline ? inline_bytes_.size() : size_;
}

Extent Extent::slice(std::uint64_t offset, std::uint64_t len) const {
  MAYFLOWER_ASSERT(offset <= size());
  len = std::min(len, size() - offset);
  if (kind_ == Kind::kInline) {
    return from_bytes(inline_bytes_.substr(offset, len));
  }
  return pattern(seed_, len, offset_ + offset);
}

std::uint8_t Extent::byte_at(std::uint64_t i) const {
  MAYFLOWER_ASSERT(i < size());
  if (kind_ == Kind::kInline) {
    return static_cast<std::uint8_t>(inline_bytes_[i]);
  }
  return pattern_byte(seed_, offset_ + i);
}

std::string Extent::materialize(std::uint64_t limit) const {
  if (size() > limit) return {};
  if (kind_ == Kind::kInline) return inline_bytes_;
  std::string out(size_, '\0');
  fill_pattern(seed_, offset_, reinterpret_cast<std::uint8_t*>(out.data()),
               out.size());
  return out;
}

std::uint32_t Extent::checksum() const {
  if (kind_ == Kind::kInline) return crc32(inline_bytes_);
  // Stream in 4 KiB chunks so huge patterns never materialize.
  std::uint32_t crc = 0;
  std::uint8_t buf[4096];
  std::uint64_t done = 0;
  while (done < size_) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof buf,
                                                         size_ - done));
    fill_pattern(seed_, offset_ + done, buf, n);
    crc = crc32(buf, n, crc);
    done += n;
  }
  return crc;
}

bool Extent::content_equals(const Extent& other) const {
  if (size() != other.size()) return false;
  if (kind_ == Kind::kPattern && other.kind_ == Kind::kPattern) {
    if (seed_ == other.seed_ && offset_ == other.offset_) return true;
  }
  return checksum() == other.checksum();
}

void Extent::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  if (kind_ == Kind::kInline) {
    w.str(inline_bytes_);
  } else {
    w.u64(seed_);
    w.u64(offset_);
    w.u64(size_);
  }
}

Extent Extent::decode(Reader& r) {
  Extent e;
  const auto kind = r.u8();
  if (kind == static_cast<std::uint8_t>(Kind::kInline)) {
    e.kind_ = Kind::kInline;
    e.inline_bytes_ = r.str();
  } else if (kind == static_cast<std::uint8_t>(Kind::kPattern)) {
    e.kind_ = Kind::kPattern;
    e.seed_ = r.u64();
    e.offset_ = r.u64();
    e.size_ = r.u64();
  }
  return e;
}

void ExtentList::append(Extent e) {
  if (e.size() == 0) return;
  size_ += e.size();
  extents_.push_back(std::move(e));
}

void ExtentList::append(const ExtentList& other) {
  for (const Extent& e : other.extents_) append(e);
}

ExtentList ExtentList::slice(std::uint64_t offset, std::uint64_t len) const {
  ExtentList out;
  if (offset >= size_) return out;
  len = std::min(len, size_ - offset);
  std::uint64_t pos = 0;
  for (const Extent& e : extents_) {
    if (len == 0) break;
    const std::uint64_t end = pos + e.size();
    if (end <= offset) {
      pos = end;
      continue;
    }
    const std::uint64_t local = offset > pos ? offset - pos : 0;
    const std::uint64_t take = std::min(len, e.size() - local);
    out.append(e.slice(local, take));
    offset += take;
    len -= take;
    pos = end;
  }
  return out;
}

std::uint32_t ExtentList::checksum() const {
  // Chain per-byte CRC to be layout-independent: the same logical content
  // split into different extents yields the same checksum.
  std::uint32_t crc = 0;
  std::uint8_t buf[4096];
  for (const Extent& e : extents_) {
    std::uint64_t done = 0;
    while (done < e.size()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof buf, e.size() - done));
      for (std::size_t i = 0; i < n; ++i) {
        buf[i] = e.byte_at(done + i);
      }
      crc = crc32(buf, n, crc);
      done += n;
    }
  }
  return crc;
}

std::string ExtentList::materialize(std::uint64_t limit) const {
  if (size_ > limit) return {};
  std::string out;
  out.reserve(size_);
  for (const Extent& e : extents_) {
    out += e.materialize(limit);
  }
  return out;
}

bool ExtentList::content_equals(const ExtentList& other) const {
  return size_ == other.size_ && checksum() == other.checksum();
}

void ExtentList::encode(Writer& w) const {
  w.list(extents_, [](Writer& writer, const Extent& e) { e.encode(writer); });
}

ExtentList ExtentList::decode(Reader& r) {
  ExtentList out;
  const auto extents =
      r.list<Extent>([](Reader& reader) { return Extent::decode(reader); });
  for (const Extent& e : extents) out.append(e);
  return out;
}

}  // namespace mayflower::fs
