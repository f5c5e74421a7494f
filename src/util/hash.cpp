#include "util/hash.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace catalyst {

namespace {
constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

/// The RFC 3174 reference compression of one 64-byte block.
void process_block(std::uint32_t* h, const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = temp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if defined(__x86_64__)
#define CATALYST_SHA_TARGET \
  __attribute__((target("sha,ssse3,sse4.1"), always_inline)) inline

/// Rounds 4g..4g+3 of one block on SHA-NI. `abcd` holds A..D (A in the
/// top lane); `prev` holds the ABCD from before the previous group, whose
/// rotated A is this group's E (for g == 0, the chaining E itself). The
/// message schedule rotates through m[0..3]: m[g % 4] holds W[4g..4g+3],
/// and group g also finishes group g+1's words (sha1msg2), continues
/// g+2's (xor) and starts g+3's (sha1msg1).
template <int G>
CATALYST_SHA_TARGET void sha1_four_rounds(__m128i& abcd, __m128i& prev,
                                          __m128i (&m)[4]) {
  constexpr int kCur = G % 4;
  __m128i e;
  if constexpr (G == 0) {
    e = _mm_add_epi32(prev, m[kCur]);
  } else {
    e = _mm_sha1nexte_epu32(prev, m[kCur]);
  }
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[kCur]);
  }
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[kCur]);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[kCur]);
  }
  if constexpr (G < 19) sha1_four_rounds<G + 1>(abcd, prev, m);
}

__attribute__((target("sha,ssse3,sse4.1"))) void sha1_blocks_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Big-endian words, W0 in the top lane (the sha1rnds4 operand order).
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
    __m128i prev = e0;
    sha1_four_rounds<0>(abcd, prev, m);
    e0 = _mm_sha1nexte_epu32(prev, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}
#undef CATALYST_SHA_TARGET
#endif  // __x86_64__

/// The kernel for this process, chosen on first use.
detail::Sha1BlocksFn default_kernel() {
  static const detail::Sha1BlocksFn kernel = [] {
    const detail::Sha1BlocksFn shani = detail::sha1_shani_kernel();
    return shani != nullptr ? shani : &detail::sha1_blocks_portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void sha1_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) process_block(state, data);
}

Sha1BlocksFn sha1_shani_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha")) return &sha1_blocks_shani;
#endif
  return nullptr;
}

}  // namespace detail

Sha1::Sha1() : Sha1(default_kernel()) {}

Sha1::Sha1(detail::Sha1BlocksFn kernel) : blocks_(kernel) {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
}

const char* Sha1::kernel_name() {
  return default_kernel() == &detail::sha1_blocks_portable ? "portable"
                                                            : "sha-ni";
}

void Sha1::update(std::string_view data) {
  total_bytes_ += data.size();
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t remaining = data.size();
  // Top up a partially filled buffer first.
  if (buffered_ > 0) {
    const std::size_t take = std::min(remaining, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    remaining -= take;
    if (buffered_ == buffer_.size()) {
      blocks_(h_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Hand the kernel every whole block in one run.
  const std::size_t blocks = remaining / 64;
  if (blocks > 0) {
    blocks_(h_.data(), p, blocks);
    p += blocks * 64;
    remaining -= blocks * 64;
  }
  if (remaining > 0) {
    std::memcpy(buffer_.data(), p, remaining);
    buffered_ = remaining;
  }
}

Sha1::Digest Sha1::finalize() {
  // Append 0x80, pad with zeros, then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(std::string_view(reinterpret_cast<const char*>(pad), pad_len));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  total_bytes_ -= pad_len;  // keep the recorded length consistent
  update(std::string_view(reinterpret_cast<const char*>(len_be), 8));

  Digest out{};
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(4 * i) + 0] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i) + 1] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i) + 2] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i) + 3] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Sha1::Digest Sha1::digest(std::string_view data) {
  Sha1 s;
  s.update(data);
  return s.finalize();
}

std::string Sha1::hex_digest(std::string_view data) {
  const Digest d = digest(data);
  return to_hex(d.data(), d.size());
}

std::string to_hex(const std::uint8_t* data, std::size_t size) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(size * 2);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xF]);
  }
  return out;
}

}  // namespace catalyst
