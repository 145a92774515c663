// Tests for the LZSS codec (email server's compress/print workload).
#include "apps/email/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/rng.hpp"

namespace icilk::apps {

// The byte-at-a-time codec the optimised one replaced, kept verbatim as
// the oracle: lz_compress must emit exactly its bytes, and lz_decompress
// must reach its verdict on every stream, valid or not.
namespace ref {
namespace {

constexpr std::size_t kWindow = 4096;  // 12-bit offsets
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;  // 4 bits: len - kMinMatch in [0,15]
constexpr int kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash3(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::string lz_compress(std::string_view input) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  std::string out;
  out.reserve(n / 2 + 16);

  // Header: original length (varint-free, 4 bytes LE; inputs are small).
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xFF));
  }

  // Hash heads + previous-position chains, bounded by the window.
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(n > 0 ? n : 1, -1);

  std::size_t pos = 0;
  std::size_t flag_at = 0;
  int flag_fill = 8;  // forces a fresh flag byte on the first token
  auto begin_token = [&](bool is_match) {
    if (flag_fill == 8) {
      flag_at = out.size();
      out.push_back(0);
      flag_fill = 0;
    }
    if (is_match) out[flag_at] |= static_cast<char>(1 << flag_fill);
    ++flag_fill;
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash3(in + pos);
      std::int32_t cand = head[h];
      int probes = 32;
      while (cand >= 0 && probes-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const std::size_t limit =
            (n - pos) < kMaxMatch ? (n - pos) : kMaxMatch;
        std::size_t len = 0;
        const unsigned char* a = in + static_cast<std::size_t>(cand);
        const unsigned char* b = in + pos;
        while (len < limit && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = pos - static_cast<std::size_t>(cand);
          if (len == kMaxMatch) break;
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
      out.push_back(static_cast<char>(off & 0xFF));
      out.push_back(static_cast<char>(((off >> 8) & 0x0F) | (lenc << 4)));
      // Insert skipped positions into the hash chains.
      for (std::size_t k = 1; k < best_len && pos + k + kMinMatch <= n; ++k) {
        const std::uint32_t h2 = hash3(in + pos + k);
        prev[pos + k] = head[h2];
        head[h2] = static_cast<std::int32_t>(pos + k);
      }
      pos += best_len;
    } else {
      begin_token(false);
      out.push_back(static_cast<char>(in[pos]));
      ++pos;
    }
  }
  return out;
}

bool lz_decompress(std::string_view input, std::string& output) {
  output.clear();
  if (input.size() < 4) return false;
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  std::size_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::size_t>(in[i]) << (8 * i);
  }
  output.reserve(n);
  std::size_t pos = 4;
  std::uint8_t flags = 0;
  int flag_left = 0;
  while (output.size() < n) {
    if (flag_left == 0) {
      if (pos >= input.size()) return false;
      flags = in[pos++];
      flag_left = 8;
    }
    const bool is_match = (flags & 1) != 0;
    flags >>= 1;
    --flag_left;
    if (is_match) {
      if (pos + 2 > input.size()) return false;
      const std::uint16_t b0 = in[pos];
      const std::uint16_t b1 = in[pos + 1];
      pos += 2;
      const std::size_t off = static_cast<std::size_t>(
                                  b0 | ((b1 & 0x0F) << 8)) + 1;
      const std::size_t len = static_cast<std::size_t>(b1 >> 4) + kMinMatch;
      if (off > output.size()) return false;
      const std::size_t start = output.size() - off;
      for (std::size_t k = 0; k < len; ++k) {
        output.push_back(output[start + k]);  // may self-overlap: correct
      }
    } else {
      if (pos >= input.size()) return false;
      output.push_back(static_cast<char>(in[pos++]));
    }
  }
  return output.size() == n;
}

}  // namespace
}  // namespace ref

namespace {

std::string roundtrip(const std::string& in) {
  const std::string packed = lz_compress(in);
  std::string out;
  EXPECT_TRUE(lz_decompress(packed, out));
  return out;
}

TEST(Codec, EmptyInput) { EXPECT_EQ(roundtrip(""), ""); }

TEST(Codec, ShortLiteralOnly) { EXPECT_EQ(roundtrip("ab"), "ab"); }

TEST(Codec, SimpleText) {
  const std::string s = "hello hello hello world world!";
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, HighlyRepetitiveCompressesWell) {
  const std::string s(10000, 'z');
  const std::string packed = lz_compress(s);
  EXPECT_LT(packed.size(), s.size() / 4);
  std::string out;
  ASSERT_TRUE(lz_decompress(packed, out));
  EXPECT_EQ(out, s);
}

TEST(Codec, OverlappingMatchSelfCopy) {
  // "abcabcabc..." forces matches whose source overlaps the destination.
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "abc";
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, RandomBinaryDataSurvives) {
  Xoshiro256 rng(99);
  std::string s;
  for (int i = 0; i < 20000; ++i) {
    s.push_back(static_cast<char>(rng.next() & 0xFF));
  }
  // Incompressible data must still round-trip (expansion is fine).
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, MixedStructuredData) {
  Xoshiro256 rng(5);
  std::string s;
  const std::string words[] = {"alpha ", "beta ", "gamma ", "delta "};
  for (int i = 0; i < 5000; ++i) s += words[rng.bounded(4)];
  const std::string packed = lz_compress(s);
  EXPECT_LT(packed.size(), s.size());  // prose must compress
  std::string out;
  ASSERT_TRUE(lz_decompress(packed, out));
  EXPECT_EQ(out, s);
}

TEST(Codec, AllInputSizesZeroToN) {
  // Sweep sizes across flag-byte and window boundaries.
  Xoshiro256 rng(17);
  std::string base;
  for (int i = 0; i < 9000; ++i) {
    base.push_back(static_cast<char>('a' + rng.bounded(6)));
  }
  for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 255u, 4095u, 4096u,
                          4097u, 8192u, 9000u}) {
    const std::string s = base.substr(0, len);
    EXPECT_EQ(roundtrip(s), s) << "len=" << len;
  }
}

TEST(Codec, CorruptInputRejected) {
  std::string out;
  EXPECT_FALSE(lz_decompress("", out));
  EXPECT_FALSE(lz_decompress("abc", out));            // truncated header
  // Claimed length 100 with no body.
  std::string bogus = {'\x64', 0, 0, 0};
  EXPECT_FALSE(lz_decompress(bogus, out));
  // Match referring before the start of output.
  std::string evil = {'\x10', 0, 0, 0, '\x01', '\x00', '\x00'};
  EXPECT_FALSE(lz_decompress(evil, out));
}

TEST(Codec, TruncatedStreamRejected) {
  const std::string s(1000, 'q');
  const std::string packed = lz_compress(s);
  std::string out;
  EXPECT_FALSE(lz_decompress(packed.substr(0, packed.size() / 2), out));
}

TEST(Codec, OversizedHeaderRejectedBeforeAllocating) {
  // Claims 4 GiB from a 3-byte payload; no valid stream decodes to more
  // than 9 bytes per payload byte, so this fails without touching memory.
  const std::string huge = {'\xFF', '\xFF', '\xFF', '\xFF', '\x01', 0, 0};
  std::string out;
  EXPECT_FALSE(lz_decompress(huge, out));
  EXPECT_TRUE(out.empty());
}

TEST(Codec, DensestStreamWithinExpansionBound) {
  // A long run compresses to maximal matches, the densest valid stream;
  // the decoder's length guard must still admit it.
  const std::string s(100000, 'r');
  const std::string packed = lz_compress(s);
  EXPECT_GT(s.size(), 8 * (packed.size() - 4));
  std::string out;
  ASSERT_TRUE(lz_decompress(packed, out));
  EXPECT_EQ(out, s);
}

// --- Oracle: byte identity against ref:: over a seeded corpus ---

// EmailServer::make_body's generator: words of its 20-word lexicon.
std::string prose(std::uint64_t seed, std::size_t bytes) {
  static const char* kWords[] = {
      "the",     "scheduler", "deque",   "priority", "latency",  "worker",
      "steal",   "resume",    "suspend", "request",  "response", "aging",
      "prompt",  "bitfield",  "queue",   "mug",      "email",    "server",
      "message", "compress"};
  Xoshiro256 rng(seed);
  std::string body;
  while (body.size() < bytes) {
    body += kWords[rng.bounded(std::size(kWords))];
    body += ' ';
  }
  body.resize(bytes);
  return body;
}

std::string binary(std::uint64_t seed, std::size_t bytes) {
  Xoshiro256 rng(seed);
  std::string s;
  for (std::size_t i = 0; i < bytes; ++i) {
    s.push_back(static_cast<char>(rng.next() & 0xFF));
  }
  return s;
}

std::vector<std::string> corpus() {
  std::vector<std::string> c;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) c.push_back(prose(seed, 2048));
  const std::string long_prose = prose(42, 9000);
  const std::string long_binary = binary(43, 9000);
  for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 17u, 18u, 19u, 255u,
                          4095u, 4096u, 4097u, 8192u, 9000u}) {
    c.push_back(long_prose.substr(0, len));
    c.push_back(long_binary.substr(0, len));
  }
  // Single-byte runs: one long run, then runs of random bytes and lengths.
  c.push_back(std::string(9000, 'z'));
  Xoshiro256 rng(44);
  std::string runs;
  while (runs.size() < 4096) {
    runs.append(1 + rng.bounded(40), static_cast<char>(rng.next() & 0xFF));
  }
  c.push_back(runs);
  std::string abc;
  for (int i = 0; i < 3000; ++i) abc += "abc";
  c.push_back(abc);
  return c;
}

// The reference reserves the claimed length up front; past this claim it
// is not run (the header guard decides those, see below).
constexpr std::size_t kRefMaxClaim = std::size_t{1} << 24;

// Decodes `s` with both decoders: same verdict, same output on success,
// and on failure the new output is a prefix of what the reference decoded.
void expect_same_decode(const std::string& s, const char* what,
                        std::size_t at) {
  std::string got;
  const bool ok = lz_decompress(s, got);
  std::size_t claim = 0;
  for (std::size_t i = 0; i < 4 && i < s.size(); ++i) {
    claim |= static_cast<std::size_t>(static_cast<unsigned char>(s[i]))
             << (8 * i);
  }
  if (s.size() >= 4 && claim > 9 * (s.size() - 4)) {
    // Denser than any valid stream (17 payload bytes decode to at most
    // 144), so the reference rejects it too.
    EXPECT_FALSE(ok) << what << " at " << at;
    EXPECT_TRUE(got.empty()) << what << " at " << at;
    return;
  }
  ASSERT_LE(claim, kRefMaxClaim);
  std::string want;
  const bool want_ok = ref::lz_decompress(s, want);
  ASSERT_EQ(ok, want_ok) << what << " at " << at;
  if (ok) {
    ASSERT_EQ(got, want) << what << " at " << at;
  } else {
    ASSERT_LE(got.size(), want.size()) << what << " at " << at;
    ASSERT_EQ(got, want.substr(0, got.size())) << what << " at " << at;
  }
}

TEST(CodecOracle, CompressedBytesMatchReference) {
  for (const std::string& in : corpus()) {
    const std::string packed = lz_compress(in);
    ASSERT_EQ(packed, ref::lz_compress(in)) << "input size " << in.size();
    std::string out;
    ASSERT_TRUE(lz_decompress(packed, out));
    ASSERT_EQ(out, in);
    // Exact-size result: stored bodies must not carry worst-case capacity.
    EXPECT_LT(packed.capacity(), packed.size() + 32)
        << "input size " << in.size();
  }
}

TEST(CodecOracle, EveryTruncationMatchesReference) {
  for (const std::string& in : corpus()) {
    const std::string packed = lz_compress(in);
    for (std::size_t len = 0; len < packed.size(); ++len) {
      expect_same_decode(packed.substr(0, len), "truncation", len);
    }
  }
}

TEST(CodecOracle, EverySingleByteCorruptionMatchesReference) {
  // Every position of every stream, XORed with a seeded nonzero byte; the
  // header and the first 8 payload bytes, and every byte of streams up
  // to 256 bytes, with all 255 nonzero values.
  Xoshiro256 rng(45);
  for (const std::string& in : corpus()) {
    const std::string packed = lz_compress(in);
    for (std::size_t at = 0; at < packed.size(); ++at) {
      const bool exhaustive = at < 12 || packed.size() <= 256;
      for (unsigned x = 1; x < 256; ++x) {
        const unsigned mask =
            exhaustive ? x : 1 + rng.bounded(255);
        std::string bad = packed;
        bad[at] = static_cast<char>(bad[at] ^ mask);
        expect_same_decode(bad, "corruption", at);
        if (!exhaustive) break;
      }
    }
  }
}

}  // namespace
}  // namespace icilk::apps
