// LZSS compression codec — the workload behind the email server's
// `compress` and `print` operations (print = decompress + format).
//
// Classic LZSS: a 4 KiB sliding window, minimum match 3, maximum 18.
// Tokens are grouped eight per flag byte; a set bit means a 2-byte match
// token (12-bit backward offset, 4-bit length-3), a clear bit a literal.
// Compression uses 3-byte hash chains over the window (13-bit heads, 32
// probes per position, a candidate wins only by a strictly longer match),
// which makes the operation meaningfully CPU-bound — matching the role
// this computation plays in the benchmark (lowest-priority background-ish
// work).
//
// Byte-identity contract: lz_compress emits exactly the bytes of the
// original byte-at-a-time encoder, and lz_decompress reaches the original
// decoder's verdict on every input and its output on every valid one.
// The matcher's speed-ups (skip a candidate that differs at the current
// best length, compare 8 bytes at a time, stop at the length limit) change
// no choice it makes. tests/apps/test_codec.cpp keeps the original codec
// as an oracle and checks both directions on a seeded corpus, with every
// truncation and a single-byte corruption at every position.
//
// Cost on 2 KB bodies of the email server's prose (perfbench `--trace 1`,
// email workload, 4-vCPU Xeon VM, medians of 6 interleaved runs against
// the byte-at-a-time loops this replaced): apps.lz_compress_us 49.6 ->
// 23.4, apps.lz_decompress_us 8.2 -> 2.2.
#pragma once

#include <string>
#include <string_view>

namespace icilk::apps {

/// Compresses `input` (under 2 GiB: chain positions are signed 32-bit).
/// The result is sized exactly, since callers store it.
std::string lz_compress(std::string_view input);

/// Inverse of lz_compress. Returns false on corrupt input; `output` then
/// holds only a prefix of what was decoded before the fault. A header that
/// claims more than 9 output bytes per payload byte is rejected before
/// anything is allocated.
bool lz_decompress(std::string_view input, std::string& output);

}  // namespace icilk::apps
