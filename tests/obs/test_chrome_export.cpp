// Chrome trace_event JSON exporter: structural well-formedness (balanced
// JSON, required fields), event mapping (metadata / instant / duration),
// and timestamp normalization. No JSON library in the tree, so a small
// recursive-descent validator checks syntax.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

namespace icilk::obs {
namespace {

// Minimal JSON syntax validator (objects/arrays/strings/numbers/keywords).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return keyword("true");
      case 'f':
        return keyword("false");
      case 'n':
        return keyword("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool keyword(const char* kw) {
    const std::string k(kw);
    if (s_.compare(pos_, k.size(), k) != 0) return false;
    pos_ += k.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& n) {
  std::size_t count = 0;
  for (std::size_t p = hay.find(n); p != std::string::npos;
       p = hay.find(n, p + n.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeExport, EmptySinkIsValidJson) {
  TraceSink sink(64, true);
  const std::string json = sink.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeExport, EventsAndThreadMetadata) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "built with ICILK_HOOKS=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  TraceRing& io = sink.acquire_ring("io0");
  w0.record(EventKind::kSpawn, 1, 42);
  w0.record(EventKind::kSteal, 0, 0);
  io.record(EventKind::kIoComplete, TraceEvent::kNoLevel16, 9);

  const std::string json = sink.chrome_trace_json();
  ASSERT_TRUE(JsonChecker(json).valid()) << json;

  // One thread_name metadata record per ring.
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"worker0\""), std::string::npos);
  EXPECT_NE(json.find("\"io0\""), std::string::npos);
  // The instants, with their payloads.
  EXPECT_NE(json.find("\"spawn\""), std::string::npos);
  EXPECT_NE(json.find("\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"io_complete\""), std::string::npos);
  EXPECT_NE(json.find("\"level\":1"), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos);
  // kNoLevel16 events carry no bogus "level" with 65535.
  EXPECT_EQ(json.find("65535"), std::string::npos);
}

TEST(ChromeExport, SleepPairsBecomeDurationEvents) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "built with ICILK_HOOKS=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  w0.record(EventKind::kSleepBegin);
  w0.record(EventKind::kSleepEnd);
  w0.record(EventKind::kSleepBegin);
  w0.record(EventKind::kSleepEnd);

  const std::string json = sink.chrome_trace_json();
  ASSERT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"sleep\""), 2u);
  // Paired sleeps are consumed, not also emitted as instants.
  EXPECT_EQ(json.find("sleep_begin"), std::string::npos);
}

TEST(ChromeExport, TimestampsStartNearZeroMicroseconds) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "built with ICILK_HOOKS=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  w0.record(EventKind::kSpawn, 0, 0);

  const std::string json = sink.chrome_trace_json();
  // The single event is the origin: its ts must be exactly 0.000.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos) << json;
}

TEST(ChromeExport, FileRoundTrip) {
  TraceSink sink(64, true);
  sink.acquire_ring("worker0").record(EventKind::kMug, 1, 0);
  const std::string path =
      testing::TempDir() + "icilk_test_chrome_export.json";
  ASSERT_TRUE(sink.write_chrome_trace_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, sink.chrome_trace_json());
  EXPECT_TRUE(JsonChecker(contents).valid());
}

}  // namespace
}  // namespace icilk::obs
