// Run-server gates (DESIGN.md "Live telemetry plane"): the AF_UNIX
// line-JSON protocol end to end — ping, submit, snapshot, follow, shutdown
// — against a real server hosting real (short) runs, plus the direct
// submit()/wait_idle() API and the determinism of the hosted scenarios.
#include "server/run_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "telemetry/json.h"
#include "telemetry/run_report.h"

namespace spider::server {
namespace {

std::string test_socket_path(const char* tag) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/spider-test-%ld-%s.sock",
                static_cast<long>(::getpid()), tag);
  return buf;
}

RunSubmission short_drive(std::uint64_t seed) {
  RunSubmission s;
  s.scenario = "drive";
  s.seed = seed;
  s.duration = sim::Time::seconds(5);
  s.aps = 6;
  return s;
}

// Blocking line-oriented client for the test side of the socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    // MSG_NOSIGNAL: the server drops connections idle for >5 s, so a send
    // racing that close must fail with EPIPE, not kill the test process.
    const std::string framed = line + "\n";
    return ::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(framed.size());
  }

  // Reads until the next newline (blocking; the server always answers).
  std::string read_line() {
    while (true) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Counts streamed trace lines (spans, instants, counter samples) per run.
class TraceLineCounter : public telemetry::StreamSink {
 public:
  bool write_line(std::string_view line) override {
    telemetry::JsonValue v;
    if (!telemetry::parse_json(line, v)) return true;
    const std::string kind = v.string_or("kind", "");
    if (kind == "span" || kind == "instant" || kind == "counter_sample") {
      std::lock_guard<std::mutex> lock(mu_);
      ++lines_[static_cast<std::uint32_t>(v.number_or("run", 0))];
    }
    return true;
  }
  std::size_t lines(std::uint32_t run) {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_[run];
  }

 private:
  std::mutex mu_;
  std::map<std::uint32_t, std::size_t> lines_;
};

TEST(RunServer, DirectSubmitRunsToCompletion) {
  // trace_runs switches the trace recorder of drive and fleet runs alike.
  for (const bool trace_runs : {true, false}) {
    RunServerConfig config;
    config.socket_path = test_socket_path("direct");
    config.stream_cadence = sim::Time::millis(10);
    config.trace_runs = trace_runs;
    RunServer server(config);
    auto trace_lines = std::make_shared<TraceLineCounter>();
    server.exporter().add_sink(trace_lines);
    ASSERT_TRUE(server.start());

    const std::uint32_t tag = server.submit(short_drive(7));
    RunSubmission fleet = short_drive(9);
    fleet.scenario = "fleet";
    fleet.clients = 2;
    const std::uint32_t fleet_tag = server.submit(fleet);
    server.wait_idle();
    EXPECT_EQ(server.runs_submitted(), 2u);
    EXPECT_EQ(server.runs_completed(), 2u);
    EXPECT_EQ(server.runs_failed(), 0u);

    telemetry::JsonValue snap;
    ASSERT_TRUE(
        telemetry::parse_json(server.exporter().snapshot_json(), snap));
    const telemetry::JsonValue* runs = snap.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 2u);
    EXPECT_EQ(static_cast<std::uint32_t>(runs->array[0].number_or("run", 99)),
              tag);
    for (const telemetry::JsonValue& run : runs->array) {
      EXPECT_EQ(run.string_or("state", ""), "finished");
      EXPECT_GT(run.number_or("events", 0), 0.0);
    }
    server.stop();
    for (const std::uint32_t run : {tag, fleet_tag}) {
      if (trace_runs) {
        EXPECT_GT(trace_lines->lines(run), 0u) << "run " << run;
      } else {
        EXPECT_EQ(trace_lines->lines(run), 0u) << "run " << run;
      }
    }
  }
}

TEST(RunServer, HostedScenariosAreDeterministic) {
  RunServerConfig config;
  config.socket_path = test_socket_path("det");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());
  server.submit(short_drive(21));
  server.submit(short_drive(21));
  server.wait_idle();
  server.stop();

  telemetry::JsonValue snap;
  ASSERT_TRUE(telemetry::parse_json(server.exporter().snapshot_json(), snap));
  const telemetry::JsonValue* runs = snap.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 2u);
  // Same submission, same world: digests and event counts must agree even
  // though both runs streamed live through the shared exporter.
  EXPECT_EQ(runs->array[0].string_or("digest", "a"),
            runs->array[1].string_or("digest", "b"));
  EXPECT_EQ(runs->array[0].number_or("events", -1),
            runs->array[1].number_or("events", -2));
}

TEST(RunServer, SocketProtocolPingSubmitFollowShutdown) {
  RunServerConfig config;
  config.socket_path = test_socket_path("proto");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  std::uint32_t tag = 99;
  {
    Client client(config.socket_path);
    ASSERT_TRUE(client.ok());

    ASSERT_TRUE(client.send_line("{\"cmd\":\"ping\"}"));
    telemetry::JsonValue pong;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), pong));
    EXPECT_EQ(pong.string_or("kind", ""), "pong");

    ASSERT_TRUE(client.send_line(
        "{\"cmd\":\"submit\",\"scenario\":\"fleet\",\"seed\":3,"
        "\"duration_s\":4,\"aps\":6,\"clients\":2}"));
    telemetry::JsonValue accepted;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), accepted));
    const telemetry::JsonValue* ok = accepted.find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean);
    tag = static_cast<std::uint32_t>(accepted.number_or("run", 99));

    ASSERT_TRUE(client.send_line("{\"cmd\":\"submit\",\"scenario\":\"bogus\"}"));
    telemetry::JsonValue rejected;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), rejected));
    EXPECT_NE(rejected.string_or("error", ""), "");

    server.wait_idle();
  }  // drop the control connection: a loaded machine can outlast the 5 s
     // idle timeout anyway

  {
    // A follower connecting after the run still gets the registry snapshot
    // line first — with the finished run's final state on it.
    Client follower(config.socket_path);
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE(follower.send_line("{\"cmd\":\"follow\"}"));
    telemetry::JsonValue snap;
    ASSERT_TRUE(telemetry::parse_json(follower.read_line(), snap));
    EXPECT_EQ(snap.string_or("kind", ""), "snapshot");
    EXPECT_EQ(snap.string_or("schema", ""), telemetry::kStreamSchema);
    const telemetry::JsonValue* runs = snap.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    EXPECT_EQ(static_cast<std::uint32_t>(runs->array[0].number_or("run", 99)),
              tag);
    EXPECT_EQ(runs->array[0].string_or("state", ""), "finished");
  }  // the follower hangs up; the exporter unsubscribes its sink

  {
    Client control(config.socket_path);
    ASSERT_TRUE(control.ok());
    ASSERT_TRUE(control.send_line("{\"cmd\":\"shutdown\"}"));
    telemetry::JsonValue bye;
    ASSERT_TRUE(telemetry::parse_json(control.read_line(), bye));
    EXPECT_TRUE(server.shutdown_requested());
  }
  server.stop();
  EXPECT_EQ(server.runs_completed(), 1u);
  EXPECT_EQ(server.runs_failed(), 0u);
}

TEST(RunServer, HostileSubmitValuesAreRejectedAndServerStaysUp) {
  RunServerConfig config;
  config.socket_path = test_socket_path("hostile");
  RunServer server(config);
  ASSERT_TRUE(server.start());
  // Each field takes values its integer type cannot hold (casting them is
  // undefined behaviour), non-finite ones (1e400 reads as infinity) and
  // durations whose microsecond count would overflow.
  const char* const hostile[] = {
      "\"seed\":1e300",        "\"seed\":-1",
      "\"seed\":1.9e19",       "\"seed\":1e400",
      "\"duration_s\":1e300",  "\"duration_s\":-1e400",
      "\"duration_s\":1e17",   "\"duration_s\":-1",
      "\"aps\":1e300",         "\"aps\":3e9",
      "\"aps\":-1e10",         "\"aps\":1e400",
      "\"clients\":1e300",     "\"clients\":-3e9",
      "\"clients\":1e400",
  };
  Client client(config.socket_path);
  ASSERT_TRUE(client.ok());
  for (const char* field : hostile) {
    ASSERT_TRUE(client.send_line(
        std::string("{\"cmd\":\"submit\",\"scenario\":\"fleet\",") + field +
        "}"));
    telemetry::JsonValue reply;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), reply)) << field;
    EXPECT_EQ(reply.string_or("error", ""), "bad submission parameters")
        << field;
    ASSERT_TRUE(client.send_line("{\"cmd\":\"ping\"}"));
    telemetry::JsonValue pong;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), pong)) << field;
    EXPECT_EQ(pong.string_or("kind", ""), "pong") << field;
  }
  EXPECT_EQ(server.runs_submitted(), 0u);
  server.stop();
}

TEST(RunServer, StalledFollowerDoesNotWedgeServer) {
  RunServerConfig config;
  config.socket_path = test_socket_path("stall");
  // 1 ms cadence on a 5 s run: thousands of metrics lines, far more than an
  // AF_UNIX socket buffer holds — guarantees the stalled follower's buffer
  // fills mid-run.
  config.stream_cadence = sim::Time::millis(1);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  Client follower(config.socket_path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower.send_line("{\"cmd\":\"follow\"}"));
  ASSERT_NE(follower.read_line(), "");  // snapshot line
  // The follower now stops reading. The exporter must drop it (bounded
  // write budget) instead of blocking in send under its lock — which would
  // wedge the end-of-run detach and hang wait_idle forever.
  server.submit(short_drive(5));
  server.wait_idle();
  EXPECT_EQ(server.runs_completed(), 1u);
  server.stop();
}

TEST(RunServer, StopAbandonsQueuedRuns) {
  RunServerConfig config;
  config.socket_path = test_socket_path("abandon");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 6; ++i) server.submit(short_drive(100 + i));
  // stop() lands long before six runs can execute; the runner finishes at
  // most the run it already popped and abandons the rest of the queue.
  server.stop();
  EXPECT_LE(server.runs_completed(), 1u);
  EXPECT_EQ(server.runs_submitted(), 6u);
  // wait_idle must return despite the abandoned queue (stop_ short-circuits
  // the predicate), not hang on completed == submitted.
  server.wait_idle();
}

TEST(RunServer, ConcurrentClientsAreServedIndependently) {
  RunServerConfig config;
  config.socket_path = test_socket_path("multi");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  // First client connects and sits idle; with per-connection handler
  // threads the second client's ping answers immediately instead of
  // starving behind the first's 5 s idle window.
  Client idle_client(config.socket_path);
  ASSERT_TRUE(idle_client.ok());
  Client pinger(config.socket_path);
  ASSERT_TRUE(pinger.ok());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(pinger.send_line("{\"cmd\":\"ping\"}"));
  telemetry::JsonValue pong;
  ASSERT_TRUE(telemetry::parse_json(pinger.read_line(), pong));
  EXPECT_EQ(pong.string_or("kind", ""), "pong");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Serial handling would park this ping for the idle client's full 5 s
  // timeout; keep a wide margin for loaded machines.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
  server.stop();
}

}  // namespace
}  // namespace spider::server
