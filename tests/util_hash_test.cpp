#include "util/hash.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

namespace catalyst {
namespace {

// RFC 3174 / FIPS-180 known answers.
TEST(Sha1Test, KnownVectors) {
  EXPECT_EQ(Sha1::hex_digest("abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::hex_digest(""),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(
      Sha1::hex_digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha1::hex_digest(input),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly, in chunks";
  Sha1 incremental;
  // Feed in awkward chunk sizes straddling the 64-byte block boundary.
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 3, 7, 13, 63, 64, 65};
  std::size_t idx = 0;
  while (pos < data.size()) {
    const std::size_t take =
        std::min(chunks[idx++ % 7], data.size() - pos);
    incremental.update(std::string_view(data).substr(pos, take));
    pos += take;
  }
  const auto inc = incremental.finalize();
  const auto oneshot = Sha1::digest(data);
  EXPECT_EQ(inc, oneshot);
}

TEST(Sha1Test, BoundaryLengths) {
  // Lengths around the padding boundary (55/56/63/64) are the classic
  // off-by-one traps.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::string input(len, 'x');
    Sha1 s;
    s.update(input);
    EXPECT_EQ(s.finalize(), Sha1::digest(input)) << "len=" << len;
  }
}

// Differential tests of the two compression kernels. Each digest is fed
// through Sha1::update() in randomly sized pieces, so partial-buffer
// top-ups, single buffered blocks and multi-block runs all reach the
// kernel under test.

/// FIPS 180 known answers: "abc", the 448-bit message, a million 'a's.
std::vector<std::pair<std::string, std::string>> fips_vectors() {
  return {
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
  };
}

std::string digest_in_pieces(detail::Sha1BlocksFn kernel,
                             std::string_view data, std::mt19937_64& rng) {
  Sha1 s(kernel);
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Mostly short pieces, sometimes a long run of whole blocks.
    const std::size_t limit = rng() % 4 == 0 ? 1024 : 80;
    const std::size_t take =
        std::min<std::size_t>(rng() % (limit + 1), data.size() - pos);
    s.update(data.substr(pos, take));
    pos += take;
  }
  const Sha1::Digest d = s.finalize();
  return to_hex(d.data(), d.size());
}

/// One seeded random input of every length 0..4096.
std::vector<std::string> random_inputs() {
  std::mt19937_64 rng(20240601);
  std::vector<std::string> inputs;
  for (std::size_t len = 0; len <= 4096; ++len) {
    std::string s(len, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    inputs.push_back(std::move(s));
  }
  return inputs;
}

TEST(Sha1KernelTest, PortableKernelFipsVectorsAndRandomSplits) {
  std::mt19937_64 rng(1);
  for (const auto& [input, expected] : fips_vectors()) {
    EXPECT_EQ(digest_in_pieces(&detail::sha1_blocks_portable, input, rng),
              expected);
  }
  for (const std::string& input : random_inputs()) {
    Sha1 one_shot(&detail::sha1_blocks_portable);
    one_shot.update(input);
    const Sha1::Digest d = one_shot.finalize();
    ASSERT_EQ(digest_in_pieces(&detail::sha1_blocks_portable, input, rng),
              to_hex(d.data(), d.size()))
        << "len=" << input.size();
  }
}

TEST(Sha1KernelTest, ShaNiKernelMatchesPortable) {
  const detail::Sha1BlocksFn shani = detail::sha1_shani_kernel();
  if (shani == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA extensions (sha_ni) or is not x86-64";
  }
  EXPECT_STREQ(Sha1::kernel_name(), "sha-ni");
  std::mt19937_64 rng(2);
  for (const auto& [input, expected] : fips_vectors()) {
    EXPECT_EQ(digest_in_pieces(shani, input, rng), expected);
  }
  for (const std::string& input : random_inputs()) {
    ASSERT_EQ(digest_in_pieces(shani, input, rng),
              digest_in_pieces(&detail::sha1_blocks_portable, input, rng))
        << "len=" << input.size();
  }
}

TEST(Fnv1aTest, KnownValuesAndDistinctness) {
  // FNV-1a standard test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("/a.css"), fnv1a64("/b.css"));
}

TEST(Fnv1aTest, Constexpr) {
  static_assert(fnv1a64("abc") != fnv1a64("abd"));
  SUCCEED();
}

TEST(ToHexTest, RendersLowercase) {
  const std::uint8_t bytes[] = {0x00, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(bytes, 3), "00abff");
  EXPECT_EQ(to_hex(bytes, 0), "");
}

}  // namespace
}  // namespace catalyst
