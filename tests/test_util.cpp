#include <gtest/gtest.h>

#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "common/uuid.hpp"

namespace mayflower {
namespace {

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 test vectors.
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(Crc32, SeedChaining) {
  const std::string data = "hello world";
  const std::uint32_t whole = crc32(data);
  const std::uint32_t part = crc32(data.substr(5), crc32(data.substr(0, 5)));
  EXPECT_EQ(whole, part);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "some wal record payload";
  const std::uint32_t before = crc32(data);
  data[3] = static_cast<char>(data[3] ^ 1);
  EXPECT_NE(before, crc32(data));
}

// Bytewise reference CRC-32: one table lookup per byte.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xffffffffU;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xffU] ^ (c >> 8);
  return c ^ 0xffffffffU;
}

TEST(Crc32, MatchesBytewiseTableOnUnalignedSpans) {
  Rng rng(29);
  std::vector<unsigned char> buf(4200);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng.next_u64());
      EXPECT_EQ(crc32(buf.data() + off, len, seed),
                bytewise_crc32(buf.data() + off, len, seed))
          << "off=" << off << " len=" << len;
    }
    const std::size_t len = buf.size() - off - rng.next_below(9);
    EXPECT_EQ(crc32(buf.data() + off, len), bytewise_crc32(buf.data() + off,
                                                           len, 0))
        << "off=" << off << " len=" << len;
  }
}

TEST(Uuid, GenerateRoundTripsThroughString) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Uuid u = Uuid::generate(rng);
    EXPECT_FALSE(u.is_nil());
    const Uuid parsed = Uuid::parse(u.to_string());
    EXPECT_EQ(u, parsed);
  }
}

TEST(Uuid, StringFormIsCanonicalV4) {
  Rng rng(2);
  const std::string s = Uuid::generate(rng).to_string();
  ASSERT_EQ(s.size(), 36u);
  EXPECT_EQ(s[8], '-');
  EXPECT_EQ(s[13], '-');
  EXPECT_EQ(s[18], '-');
  EXPECT_EQ(s[23], '-');
  EXPECT_EQ(s[14], '4');                       // version nibble
  EXPECT_TRUE(std::string("89ab").find(s[19]) != std::string::npos);  // variant
}

TEST(Uuid, ParseRejectsMalformed) {
  EXPECT_TRUE(Uuid::parse("").is_nil());
  EXPECT_TRUE(Uuid::parse("not-a-uuid").is_nil());
  EXPECT_TRUE(
      Uuid::parse("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz").is_nil());
  EXPECT_TRUE(
      Uuid::parse("123456781234-1234-1234-123456789abc").is_nil());
}

TEST(Uuid, GeneratedAreDistinct) {
  Rng rng(3);
  const Uuid a = Uuid::generate(rng);
  const Uuid b = Uuid::generate(rng);
  EXPECT_NE(a, b);
  EXPECT_NE(UuidHash{}(a), UuidHash{}(b));
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("%.2f", 1.005), "1.00");
  EXPECT_EQ(strfmt(""), "");
}

TEST(Strings, HumanUnits) {
  EXPECT_EQ(human_bytes(1.5e9), "1.50 GB");
  EXPECT_EQ(human_bytes(256e6), "256.00 MB");
  EXPECT_EQ(human_bytes(12), "12.00 B");
  EXPECT_EQ(human_seconds(0.0123), "12.30 ms");
  EXPECT_EQ(human_seconds(4.5), "4.50 s");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(1.0), 125e6);     // 1 Gbps = 125 MB/s
  EXPECT_DOUBLE_EQ(mbps(10.0), 1.25e6);   // Figure 2's 10 Mbps links
  EXPECT_DOUBLE_EQ(megabits(9.0), 1.125e6);
}

}  // namespace
}  // namespace mayflower
