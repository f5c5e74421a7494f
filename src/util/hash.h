// Content hashing used for entity-tag (ETag) generation and fast lookups.
//
// ETags in the origin server are derived from a SHA-1 digest of resource
// content, mirroring what real servers (nginx, Caddy) derive from content
// or mtime/size. FNV-1a is used where a cheap non-cryptographic hash is
// enough (hash maps, deterministic content synthesis).
//
// SHA-1 compression runs on the CPU's SHA extensions (SHA-NI: sha1rnds4,
// sha1nexte, sha1msg1/2) where the processor has them, chosen once per
// process; elsewhere on the portable RFC 3174 block function, which is
// also the reference the differential tests hold the SHA-NI kernel to.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace catalyst {

namespace detail {

/// SHA-1 compression over `blocks` consecutive 64-byte blocks at `data`,
/// updating the five-word chaining state in place.
using Sha1BlocksFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// Test-only entry points to the two kernels; production code goes
/// through Sha1, which picks one per process. The portable kernel runs
/// everywhere. sha1_shani_kernel() is nullptr where the build target is
/// not x86-64 or the CPU lacks the SHA extensions.
void sha1_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);
Sha1BlocksFn sha1_shani_kernel();

}  // namespace detail

/// 64-bit FNV-1a over arbitrary bytes.
constexpr std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SHA-1 digest (20 bytes). Self-contained implementation of RFC 3174.
class Sha1 {
 public:
  using Digest = std::array<std::uint8_t, 20>;

  Sha1();

  /// Test-only: hashes through `kernel` instead of the process's choice.
  explicit Sha1(detail::Sha1BlocksFn kernel);

  /// Feeds more input. May be called repeatedly.
  void update(std::string_view data);

  /// Finalizes and returns the digest. The object must not be updated
  /// afterwards.
  Digest finalize();

  /// One-shot convenience.
  static Digest digest(std::string_view data);

  /// One-shot digest rendered as lowercase hex.
  static std::string hex_digest(std::string_view data);

  /// The compression kernel this process uses: "sha-ni" or "portable".
  static const char* kernel_name();

 private:
  detail::Sha1BlocksFn blocks_;
  std::array<std::uint32_t, 5> h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lowercase hex rendering of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t size);

}  // namespace catalyst
