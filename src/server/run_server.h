// Run server: hosts simulation worlds behind a local AF_UNIX socket and
// streams their live telemetry to anyone who connects (DESIGN.md "Live
// telemetry plane"). `spider-serve` is the CLI wrapper; `spider-trace
// --follow <socket>` is the first consumer.
//
// Protocol: line-delimited JSON, one request per line, one response line per
// request (every response carries "ok"):
//   {"cmd":"ping"}                         -> {"ok":true,"kind":"pong",...}
//   {"cmd":"snapshot"}                     -> the exporter's registry
//                                             snapshot line (every run seen,
//                                             latest metric values)
//   {"cmd":"follow"}                       -> one snapshot line, then the
//                                             live stream (JSONL, schema
//                                             spider-telemetry-stream-v1)
//                                             until the client hangs up
//   {"cmd":"submit","scenario":"drive",    -> {"ok":true,"run":R}; the run
//    "seed":1,"duration_s":30,"aps":12}       executes on the server's
//                                             runner thread, tagged R
//   {"cmd":"shutdown"}                     -> {"ok":true}; flags the host
//                                             loop to stop (see
//                                             shutdown_requested())
//
// Threading: one accept thread (poll + accept), one short-lived handler
// thread per accepted connection (so one client can't starve another's
// accept), one runner thread executing queued submissions serially, plus
// the exporter's own I/O thread. Worlds only ever live on the runner
// thread, preserving the one-world-one-thread simulator contract;
// followers observe through the lock-free ring, never through the world —
// and follower sockets are non-blocking, so a stalled consumer is dropped
// rather than allowed to slow the exporter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "core/fleet.h"
#include "telemetry/stream_exporter.h"

namespace spider::server {

struct RunServerConfig {
  std::string socket_path;  // AF_UNIX path; bound on start(), unlinked first
  std::string stream_file;  // optional JSONL mirror of every streamed line
  sim::Time stream_cadence = sim::Time::millis(100);
  bool trace_runs = true;  // enable the trace recorder on hosted runs
};

// One hosted run request. "drive" is the single-client vehicular harness
// (core::Experiment); "fleet" is N clients sharing the deployment
// (core::FleetExperiment).
struct RunSubmission {
  std::string scenario = "drive";  // "drive" | "fleet"
  std::uint64_t seed = 1;
  sim::Time duration = sim::Time::seconds(30);
  int aps = 12;
  int clients = 4;  // fleet only
};

// Canonical hosted scenarios, exposed so tests and benches can run the exact
// world the server would. Deterministic for a given argument tuple.
core::ExperimentConfig drive_scenario(std::uint64_t seed, sim::Time duration,
                                      int aps);
core::FleetConfig fleet_scenario(std::uint64_t seed, sim::Time duration,
                                 int clients, int aps);

class RunServer {
 public:
  explicit RunServer(RunServerConfig config);
  ~RunServer();

  RunServer(const RunServer&) = delete;
  RunServer& operator=(const RunServer&) = delete;

  // Binds the socket and starts the accept + runner threads. Returns false
  // (with the server stopped) if the socket can't be bound.
  bool start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  // Set by the "shutdown" command; the hosting loop (spider-serve) polls
  // this and calls stop().
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  telemetry::StreamExporter& exporter() { return exporter_; }

  // Enqueues a run (same path the socket "submit" command uses). Returns
  // the run tag its streamed lines will carry.
  std::uint32_t submit(const RunSubmission& submission);

  std::uint64_t runs_submitted() const {
    return runs_submitted_.load(std::memory_order_acquire);
  }
  std::uint64_t runs_completed() const {
    return runs_completed_.load(std::memory_order_acquire);
  }
  std::uint64_t runs_failed() const {
    return runs_failed_.load(std::memory_order_acquire);
  }
  // Blocks until every submitted run has executed, or until stop() abandons
  // the queue (tests; the accept/handler threads never call this).
  void wait_idle();

 private:
  void accept_loop();
  void runner_loop();
  void handle_client(int fd);
  void execute(const RunSubmission& submission, std::uint32_t run_tag);

  RunServerConfig config_;
  telemetry::StreamExporter exporter_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> runs_submitted_{0};
  std::atomic<std::uint64_t> runs_completed_{0};
  std::atomic<std::uint64_t> runs_failed_{0};
  int listen_fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::pair<RunSubmission, std::uint32_t>> queue_;
  std::uint32_t next_run_tag_ = 0;
  std::thread accept_thread_;
  std::thread runner_thread_;
  // Detached per-connection handler threads; stop() blocks until the count
  // drains to zero so no handler can outlive the server.
  std::mutex clients_mu_;
  std::condition_variable clients_cv_;
  int active_clients_ = 0;
};

}  // namespace spider::server
