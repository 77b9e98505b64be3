// Test helpers for reading what a run streams: a sink that keeps every line
// in memory, a parser for the captured text, a capture that attaches
// straight to one TraceRecorder, and the file and process plumbing for
// driving the real spider-trace and bench binaries.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/stream_exporter.h"
#include "telemetry/trace_recorder.h"

namespace spider::testutil {

// Accumulates every line handed to it. write() runs on whichever world
// thread hands its lines off (with the exporter's lock held), and tests read
// after runs complete, so the sink carries its own lock.
class CaptureSink : public telemetry::StreamSink {
 public:
  bool write(std::string_view lines) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(lines);
    return true;
  }

  std::string text() const {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

// The lines of `text` whose "kind" is `kind` (every line when empty),
// parsed, in order. An unparseable line fails the test.
inline std::vector<telemetry::JsonValue> parse_lines(std::string_view text,
                                                     std::string_view kind) {
  std::vector<telemetry::JsonValue> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    telemetry::JsonValue doc;
    if (!telemetry::parse_json(line, doc)) {
      ADD_FAILURE() << "unparseable stream line: " << line;
      continue;
    }
    if (kind.empty() || doc.string_or("kind", "") == kind) {
      out.push_back(std::move(doc));
    }
  }
  return out;
}

// Streams one TraceRecorder's events into memory, as a run's stream would
// carry them. Declare it before the recorder's owner, so the recorder (which
// keeps a pointer to the publisher) goes first.
class TraceCapture {
 public:
  TraceCapture() { exporter_.set_sink(sink_); }

  void attach(telemetry::TraceRecorder& recorder) {
    recorder.set_stream(&publisher_);
  }

  // Everything streamed so far.
  std::string text() {
    publisher_.hand_off();
    return sink_->text();
  }

  // The captured lines of `kind` ("span", "instant", "counter_sample",
  // "track"; every line when empty).
  std::vector<telemetry::JsonValue> lines(std::string_view kind = {}) {
    return parse_lines(text(), kind);
  }

 private:
  std::shared_ptr<CaptureSink> sink_ = std::make_shared<CaptureSink>();
  telemetry::StreamExporter exporter_;
  telemetry::StreamPublisher publisher_{exporter_, /*run_tag=*/0};
};

// Runs `cmd` through the shell; returns its wait status and puts what it
// wrote to stdout (and stderr, with `2>&1` in cmd) in `out`.
inline int run_command(const std::string& cmd, std::string* out) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out->append(buf, n);
  }
  return ::pclose(pipe);
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

}  // namespace spider::testutil
