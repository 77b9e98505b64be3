#include "server/run_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/check.h"
#include "mobility/deployment.h"
#include "mobility/route.h"
#include "telemetry/json.h"
#include "telemetry/run_report.h"

namespace spider::server {
namespace {

// Follower connection: the sink owns the fd once "follow" is accepted and
// closes it when the exporter unsubscribes (write failure) or shuts down.
//
// write_line is called with the exporter lock held, so it must never block
// indefinitely: a follower that stops reading (paused pager, SIGSTOP) would
// otherwise wedge the exporter I/O thread and, through its mutex, the
// runner's end-of-run detach and the snapshot/add_sink paths. The fd is
// therefore non-blocking, and a full socket buffer gets a short bounded
// POLLOUT wait before the sink fails out and is unsubscribed.
class SocketSink : public telemetry::StreamSink {
 public:
  explicit SocketSink(int fd) : fd_(fd) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
  ~SocketSink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool write_line(std::string_view line) override {
    const char* p = line.data();
    std::size_t n = line.size();
    // Total wait budget per line for a congested-but-alive follower; a
    // buffer still full past this is a stalled consumer, and stalled
    // consumers get dropped rather than slow the exporter.
    int budget_ms = 100;
    while (n > 0) {
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w > 0) {
        p += static_cast<std::size_t>(w);
        n -= static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (budget_ms <= 0) return false;
        const int slice_ms = budget_ms < 20 ? budget_ms : 20;
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, slice_ms);
        if (ready < 0 && errno != EINTR) return false;
        budget_ms -= slice_ms;
        continue;
      }
      return false;
    }
    return true;
  }

 private:
  int fd_;
};

bool send_all(int fd, std::string_view text) {
  const char* p = text.data();
  std::size_t n = text.size();
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Converts a submitted number to T. Fails, leaving `out` alone, when the
// number is not finite or T cannot hold it: casting such a double is
// undefined behaviour.
template <typename T>
bool to_integral(double v, T& out) {
  if (!std::isfinite(v) ||
      v < static_cast<double>(std::numeric_limits<T>::min()) ||
      v >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

// Reads the numeric fields of a "submit" request. Fails on any value the
// run cannot take: out of range for its type, or not positive.
bool read_submission(const telemetry::JsonValue& request, RunSubmission& out) {
  std::int64_t duration_ms = 0;
  if (!to_integral(request.number_or("seed", 1), out.seed) ||
      !to_integral(request.number_or("duration_s", 30.0) * 1e3, duration_ms) ||
      !to_integral(request.number_or("aps", 12), out.aps) ||
      !to_integral(request.number_or("clients", 4), out.clients)) {
    return false;
  }
  // sim::Time::millis multiplies by 1000; keep that in range too.
  if (duration_ms <= 0 ||
      duration_ms > std::numeric_limits<std::int64_t>::max() / 1000) {
    return false;
  }
  out.duration = sim::Time::millis(duration_ms);
  return out.aps >= 1 && out.clients >= 1;
}

std::string error_line(std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":";
  telemetry::append_json_quoted(out, message);
  out += "}\n";
  return out;
}

}  // namespace

core::ExperimentConfig drive_scenario(std::uint64_t seed, sim::Time duration,
                                      int aps) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  sim::Rng rng(seed ^ 0x5eedf00dULL);
  cfg.aps = mobility::area_deployment(700.0, 500.0, aps, rng);
  cfg.vehicle =
      mobility::Vehicle{mobility::Route::rectangle(600.0, 400.0), 10.0};
  return cfg;
}

core::FleetConfig fleet_scenario(std::uint64_t seed, sim::Time duration,
                                 int clients, int aps) {
  core::FleetConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.clients = clients;
  sim::Rng rng(seed ^ 0x5eedf00dULL);
  cfg.aps = mobility::area_deployment(700.0, 500.0, aps, rng);
  cfg.vehicle =
      mobility::Vehicle{mobility::Route::rectangle(600.0, 400.0), 10.0};
  return cfg;
}

RunServer::RunServer(RunServerConfig config) : config_(std::move(config)) {}

RunServer::~RunServer() { stop(); }

bool RunServer::start() {
  SPIDER_CHECK(!running()) << "RunServer::start: already running";
  if (!config_.stream_file.empty()) {
    auto sink = std::make_shared<telemetry::FileStreamSink>(
        config_.stream_file);
    if (sink->ok()) exporter_.add_sink(std::move(sink));
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stop_.store(false, std::memory_order_release);
  shutdown_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  runner_thread_ = std::thread([this] { runner_loop(); });
  return true;
}

void RunServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // stop_ is waited on through mu_-guarded predicates (runner_loop,
    // wait_idle): set it under the lock so a waiter can't evaluate its
    // predicate false, miss the notify, and block forever.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  idle_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // The accept thread spawns one handler thread per connection; all of
    // them check stop_ at least every poll slice, so this drains quickly.
    std::unique_lock<std::mutex> lock(clients_mu_);
    clients_cv_.wait(lock, [this] { return active_clients_ == 0; });
  }
  if (runner_thread_.joinable()) runner_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
}

std::uint32_t RunServer::submit(const RunSubmission& submission) {
  std::uint32_t tag;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tag = next_run_tag_++;
    queue_.emplace_back(submission, tag);
    // Inside the lock for the same lost-wakeup reason as stop_: wait_idle's
    // predicate reads it under mu_.
    runs_submitted_.fetch_add(1, std::memory_order_acq_rel);
  }
  cv_.notify_all();
  return tag;
}

void RunServer::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return stop_.load(std::memory_order_acquire) ||
           (queue_.empty() &&
            runs_completed_.load(std::memory_order_acquire) ==
                runs_submitted_.load(std::memory_order_acquire));
  });
}

void RunServer::runner_loop() {
  for (;;) {
    std::pair<RunSubmission, std::uint32_t> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      // Abandon queued-but-not-started runs on stop: a shutdown shouldn't
      // wait out a backlog of multi-second simulations.
      if (stop_.load(std::memory_order_acquire)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(job.first, job.second);
    {
      std::lock_guard<std::mutex> lock(mu_);
      runs_completed_.fetch_add(1, std::memory_order_acq_rel);
    }
    idle_cv_.notify_all();
  }
}

void RunServer::execute(const RunSubmission& submission,
                        std::uint32_t run_tag) {
  // Both scenarios share the world's trace and stream fields.
  const auto attach = [&](core::WorldConfig& cfg) {
    cfg.trace_enabled = config_.trace_runs;
    cfg.stream = &exporter_;
    cfg.stream_run_tag = run_tag;
    cfg.stream_cadence = config_.stream_cadence;
  };
  try {
    if (submission.scenario == "fleet") {
      core::FleetConfig cfg = fleet_scenario(submission.seed,
                                             submission.duration,
                                             submission.clients,
                                             submission.aps);
      attach(cfg);
      core::FleetExperiment(std::move(cfg)).run();
      return;
    }
    core::ExperimentConfig cfg = drive_scenario(submission.seed,
                                                submission.duration,
                                                submission.aps);
    attach(cfg);
    core::Experiment(std::move(cfg)).run();
  } catch (const std::exception&) {
    // A failed run must not take the server down; the aborted state stays
    // visible in the snapshot (run attached but never finished).
    runs_failed_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void RunServer::accept_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stop_.load(std::memory_order_acquire)) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // One handler thread per connection so a client sitting in its idle
    // window (or streaming commands) can't starve other clients' accepts.
    // stop() waits for active_clients_ to reach zero before returning, so a
    // detached handler never outlives the server.
    {
      std::lock_guard<std::mutex> lock(clients_mu_);
      ++active_clients_;
    }
    std::thread([this, fd] {
      handle_client(fd);
      std::lock_guard<std::mutex> lock(clients_mu_);
      --active_clients_;
      clients_cv_.notify_all();
    }).detach();
  }
}

void RunServer::handle_client(int fd) {
  // Bound outbound writes so a client that stops reading its responses
  // can't pin this handler thread past stop().
  timeval send_timeout{};
  send_timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // One request line at a time; drop connections idle for >5 s so a stuck
    // client can't hold its handler thread forever. Poll in short slices so
    // stop() stays responsive mid-window.
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      ssize_t n = -1;
      for (int idle_ms = 0; idle_ms < 5000;) {
        if (stop_.load(std::memory_order_acquire)) break;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) break;
        if (ready == 0) {
          idle_ms += 200;
          continue;
        }
        n = ::recv(fd, chunk, sizeof(chunk), 0);
        break;
      }
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.empty()) continue;

    telemetry::JsonValue request;
    if (!telemetry::parse_json(line, request) || !request.is_object()) {
      if (!send_all(fd, error_line("malformed request"))) break;
      continue;
    }
    const std::string cmd = request.string_or("cmd", "");
    if (cmd == "ping") {
      std::string out = "{\"ok\":true,\"kind\":\"pong\",\"runs_submitted\":";
      telemetry::append_json_u64(out, runs_submitted());
      out += ",\"runs_completed\":";
      telemetry::append_json_u64(out, runs_completed());
      out += ",\"lines\":";
      telemetry::append_json_u64(out, exporter_.lines_written());
      out += "}\n";
      if (!send_all(fd, out)) break;
      continue;
    }
    if (cmd == "snapshot") {
      if (!send_all(fd, exporter_.snapshot_json() + "\n")) break;
      continue;
    }
    if (cmd == "follow") {
      // Snapshot first so a late joiner has every run's current state, then
      // hand the fd to the exporter as a live sink. Ownership transfers:
      // this connection is now written to only under the exporter lock.
      if (!send_all(fd, exporter_.snapshot_json() + "\n")) break;
      exporter_.add_sink(std::make_shared<SocketSink>(fd));
      return;
    }
    if (cmd == "submit") {
      RunSubmission submission;
      submission.scenario = request.string_or("scenario", "drive");
      if (submission.scenario != "drive" && submission.scenario != "fleet") {
        if (!send_all(fd, error_line("unknown scenario"))) break;
        continue;
      }
      if (!read_submission(request, submission)) {
        if (!send_all(fd, error_line("bad submission parameters"))) break;
        continue;
      }
      const std::uint32_t tag = submit(submission);
      std::string out = "{\"ok\":true,\"run\":";
      telemetry::append_json_u64(out, tag);
      out += "}\n";
      if (!send_all(fd, out)) break;
      continue;
    }
    if (cmd == "shutdown") {
      // Flag first, then acknowledge: a client that has read the reply must
      // be able to observe shutdown_requested() == true.
      shutdown_.store(true, std::memory_order_release);
      send_all(fd, "{\"ok\":true}\n");
      break;
    }
    if (!send_all(fd, error_line("unknown cmd"))) break;
  }
  ::close(fd);
}

}  // namespace spider::server
