#include "trace/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "stream_capture.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/stream_exporter.h"

namespace spider::trace {
namespace {

TEST(ExportCsv, SingleSeriesLayout) {
  EmpiricalCdf cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0}) cdf.add(x);
  std::ostringstream out;
  write_cdf_csv(out, "join", cdf, 5, 0.0, 4.0);
  EXPECT_EQ(out.str(),
            "x,join\n0,0\n1,0.25\n2,0.5\n3,0.75\n4,1\n");
}

TEST(ExportCsv, MultiSeriesSharedGrid) {
  EmpiricalCdf a, b;
  a.add(1.0);
  b.add(2.0);
  std::ostringstream out;
  write_cdfs_csv(out, {{"a", &a}, {"b", &b}}, 3, 0.0, 2.0);
  EXPECT_EQ(out.str(), "x,a,b\n0,0,0\n1,1,0\n2,1,1\n");
}

TEST(ExportCsv, EmptySeriesRendersZeros) {
  EmpiricalCdf empty;
  std::ostringstream out;
  write_cdf_csv(out, "none", empty, 2, 0.0, 1.0);
  EXPECT_EQ(out.str(), "x,none\n0,0\n1,0\n");
}

// JSON output goes through the telemetry appenders (telemetry/json.h), the
// one encoder shared by stream lines, spider-trace's Chrome export and tools.
TEST(Json, FlatObjectInInsertionOrder) {
  std::string out = "{\"throughput_kbps\":";
  telemetry::append_json_double(out, 123.5);
  out += ",\"joins\":";
  telemetry::append_json_i64(out, 7);
  out += ",\"config\":";
  telemetry::append_json_quoted(out, "ch1 multi-AP");
  out += "}";
  EXPECT_EQ(out,
            "{\"throughput_kbps\":123.5,\"joins\":7,"
            "\"config\":\"ch1 multi-AP\"}");
}

TEST(Json, EscapesSpecials) {
  std::string out;
  telemetry::append_json_quoted(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\"");
  out.clear();
  telemetry::append_json_quoted(out, std::string_view("\r\x01\x1f\0", 4));
  EXPECT_EQ(out, "\"\\u000d\\u0001\\u001f\\u0000\"");
  // The reader decodes what the writer escapes.
  telemetry::JsonValue doc;
  ASSERT_TRUE(telemetry::parse_json(out, doc));
  EXPECT_EQ(doc.string, std::string_view("\r\x01\x1f\0", 4));
}

TEST(Json, NonFiniteBecomesNull) {
  std::string out;
  telemetry::append_json_double(out, std::nan(""));
  out += ",";
  telemetry::append_json_double(out, std::numeric_limits<double>::infinity());
  out += ",";
  telemetry::append_json_double(out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null,null,null");
}

TEST(Json, RunReportLineStaysValidForNanSamplesAndControlCharacters) {
  // A NaN sample is legal (it lands in bucket 0) and poisons the sum; a
  // control character in a metric name must not break the line either.
  telemetry::Registry registry;
  registry.histogram("lat\rency").add(std::nan(""));
  registry.histogram("huge").add(1e308);
  registry.histogram("huge").add(1e308);  // the sum overflows to inf
  // The run's report is its stream's run_end line.
  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<testutil::CaptureSink>();
  exporter.set_sink(sink);
  telemetry::StreamPublisher publisher(exporter, /*run_tag=*/0);
  publisher.end_run(10, 0x1, 10, registry.snapshot());
  std::string line = sink->text();
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  std::string error;
  telemetry::JsonValue doc;
  EXPECT_TRUE(telemetry::parse_json(line, doc, &error)) << error << "\n"
                                                        << line;
  EXPECT_NE(line.find("null"), std::string::npos) << line;
  EXPECT_NE(line.find("\\u000d"), std::string::npos) << line;
  ASSERT_NE(doc.find("snapshot"), nullptr) << line;
  const telemetry::JsonValue* histograms =
      doc.find("snapshot")->find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("lat\rency"), nullptr);
}

}  // namespace
}  // namespace spider::trace
