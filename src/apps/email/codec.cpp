#include "apps/email/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace icilk::apps {

namespace {

constexpr std::size_t kWindow = 4096;  // 12-bit offsets
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;  // 4 bits: len - kMinMatch in [0,15]
constexpr int kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;
// A flag byte plus eight maximal matches is 17 bytes that decode to 144,
// so no valid stream yields more than 9 output bytes per payload byte.
constexpr std::size_t kMaxExpansion = 9;

std::uint32_t hash3(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of a and b, at most `limit` bytes; compares
/// eight bytes per step and locates the first difference from the XOR.
std::size_t match_len(const unsigned char* a, const unsigned char* b,
                      std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    const std::uint64_t x = load64(a + len) ^ load64(b + len);
    if (x != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(x)
                           : std::countl_zero(x);
      return len + static_cast<std::size_t>(bits) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::string lz_compress(std::string_view input) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  // Worst case: every token a literal, plus one flag byte per 8 tokens (a
  // match token is 2 bytes covering at least 3 input bytes).
  const std::size_t cap = 4 + n + (n + 7) / 8;
  const auto buf = std::make_unique_for_overwrite<char[]>(cap);
  char* o = buf.get();

  // Header: original length (varint-free, 4 bytes LE; inputs are small).
  for (int i = 0; i < 4; ++i) {
    *o++ = static_cast<char>((n >> (8 * i)) & 0xFF);
  }

  // Hash heads + previous-position chains, bounded by the window.
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(n > 0 ? n : 1, -1);

  std::size_t pos = 0;
  char* flag = nullptr;
  unsigned bit = 0x100;  // forces a fresh flag byte on the first token
  auto begin_token = [&](bool is_match) {
    if (bit == 0x100) {
      flag = o++;
      *flag = 0;
      bit = 1;
    }
    if (is_match) *flag = static_cast<char>(*flag | bit);
    bit <<= 1;
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kMinMatch <= n) {
      const unsigned char* b = in + pos;
      const std::size_t limit = (n - pos) < kMaxMatch ? (n - pos) : kMaxMatch;
      const std::uint32_t h = hash3(b);
      std::int32_t cand = head[h];
      int probes = 32;
      while (cand >= 0 && probes-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const unsigned char* a = in + static_cast<std::size_t>(cand);
        // Only a strictly longer match replaces the best, and it must
        // agree at best_len (< limit) to be one.
        if (a[best_len] == b[best_len]) {
          const std::size_t len = match_len(a, b, limit);
          if (len > best_len) {
            best_len = len;
            best_off = pos - static_cast<std::size_t>(cand);
            if (len == limit) break;  // no later candidate can be longer
          }
        }
        cand = prev[static_cast<std::size_t>(cand)];
      }
      // Insert pos into the chain AFTER searching (old head becomes our
      // predecessor; never self-link).
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }

    if (best_len >= kMinMatch) {
      begin_token(true);
      // offset-1 in 12 bits | (len - kMinMatch) in top 4 bits of byte 2
      const std::uint16_t off = static_cast<std::uint16_t>(best_off - 1);
      const std::uint8_t lenc =
          static_cast<std::uint8_t>(best_len - kMinMatch);
      *o++ = static_cast<char>(off & 0xFF);
      *o++ = static_cast<char>(((off >> 8) & 0x0F) | (lenc << 4));
      // Insert skipped positions into the hash chains.
      const std::size_t end = std::min(pos + best_len, n - kMinMatch + 1);
      for (std::size_t p = pos + 1; p < end; ++p) {
        const std::uint32_t h2 = hash3(in + p);
        prev[p] = head[h2];
        head[h2] = static_cast<std::int32_t>(p);
      }
      pos += best_len;
    } else {
      begin_token(false);
      *o++ = static_cast<char>(in[pos]);
      ++pos;
    }
  }
  // Exact size: callers store the result, so no worst-case capacity.
  return std::string(buf.get(), static_cast<std::size_t>(o - buf.get()));
}

bool lz_decompress(std::string_view input, std::string& output) {
  output.clear();
  if (input.size() < 4) return false;
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  std::size_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::size_t>(in[i]) << (8 * i);
  }
  // Checked before allocating: the header alone must not size the buffer.
  if (n > kMaxExpansion * (input.size() - 4)) return false;
  output.resize(n);
  char* const base = output.data();
  char* const end = base + n;
  char* o = base;
  auto fail = [&] {
    output.resize(static_cast<std::size_t>(o - base));
    return false;
  };

  std::size_t pos = 4;
  std::uint8_t flags = 0;
  int flag_left = 0;
  while (o < end) {
    if (flag_left == 0) {
      if (pos >= input.size()) return fail();
      flags = in[pos++];
      flag_left = 8;
    }
    const bool is_match = (flags & 1) != 0;
    flags >>= 1;
    --flag_left;
    if (is_match) {
      if (pos + 2 > input.size()) return fail();
      const std::uint16_t b0 = in[pos];
      const std::uint16_t b1 = in[pos + 1];
      pos += 2;
      const std::size_t off = static_cast<std::size_t>(
                                  b0 | ((b1 & 0x0F) << 8)) + 1;
      const std::size_t len = static_cast<std::size_t>(b1 >> 4) + kMinMatch;
      if (off > static_cast<std::size_t>(o - base) ||
          len > static_cast<std::size_t>(end - o)) {
        return fail();
      }
      const char* src = o - off;
      if (off >= len) {
        std::memcpy(o, src, len);
      } else {
        for (std::size_t k = 0; k < len; ++k) o[k] = src[k];  // self-overlap
      }
      o += len;
    } else {
      if (pos >= input.size()) return fail();
      *o++ = static_cast<char>(in[pos++]);
    }
  }
  return true;
}

}  // namespace icilk::apps
