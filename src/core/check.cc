#include "core/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "telemetry/metrics.h"

namespace spider::check {
namespace {

// Failure counts live in the telemetry process registry (the single export
// path for health metrics: run reports snapshot them in their sweep summary
// line); the query/reset functions below read and clear them there. Counter
// names, for dashboards and the JSONL "process" section:
constexpr const char* kCheckCounter = "check.failures.check";
constexpr const char* kDcheckCounter = "check.failures.dcheck";
constexpr const char* kUnreachableCounter = "check.failures.unreachable";

std::atomic<Policy> g_policy{Policy::kFatal};

std::mutex g_last_message_mutex;
std::string g_last_message;  // guarded by g_last_message_mutex

const char* kind_name(detail::Kind kind) {
  switch (kind) {
    case detail::Kind::kCheck: return "SPIDER_CHECK";
    case detail::Kind::kDcheck: return "SPIDER_DCHECK";
    case detail::Kind::kUnreachable: return "SPIDER_UNREACHABLE";
  }
  return "SPIDER_CHECK";
}

const char* counter_name(detail::Kind kind) {
  switch (kind) {
    case detail::Kind::kDcheck: return kDcheckCounter;
    case detail::Kind::kUnreachable: return kUnreachableCounter;
    case detail::Kind::kCheck: break;
  }
  return kCheckCounter;
}

std::uint64_t read_counter(const char* name) {
  std::lock_guard<std::mutex> lock(telemetry::process_registry_mutex());
  return telemetry::process_registry().counter(name).value();
}

}  // namespace

void set_policy(Policy policy) {
  g_policy.store(policy, std::memory_order_relaxed);
}

Policy policy() { return g_policy.load(std::memory_order_relaxed); }

std::uint64_t check_failures() { return read_counter(kCheckCounter); }

std::uint64_t dcheck_failures() { return read_counter(kDcheckCounter); }

std::uint64_t unreachable_failures() {
  return read_counter(kUnreachableCounter);
}

std::uint64_t failures() {
  std::lock_guard<std::mutex> lock(telemetry::process_registry_mutex());
  telemetry::Registry& registry = telemetry::process_registry();
  return registry.counter(kCheckCounter).value() +
         registry.counter(kDcheckCounter).value() +
         registry.counter(kUnreachableCounter).value();
}

std::string last_failure_message() {
  std::lock_guard<std::mutex> lock(g_last_message_mutex);
  return g_last_message;
}

void reset_counters() {
  {
    std::lock_guard<std::mutex> lock(telemetry::process_registry_mutex());
    telemetry::Registry& registry = telemetry::process_registry();
    registry.counter(kCheckCounter).reset();
    registry.counter(kDcheckCounter).reset();
    registry.counter(kUnreachableCounter).reset();
  }
  std::lock_guard<std::mutex> lock(g_last_message_mutex);
  g_last_message.clear();
}

namespace detail {

Failure::Failure(Kind kind, const char* expr, const char* file, int line)
    : kind_(kind) {
  stream_ << kind_name(kind) << " failed: " << expr << " (" << file << ":"
          << line << ")";
  // Separate the call site's streamed context from the location header.
  stream_ << " ";
}

Failure::~Failure() {
  const std::string message = stream_.str();
  std::fputs(message.c_str(), stderr);
  std::fputc('\n', stderr);
  if (policy() == Policy::kFatal) {
    std::fflush(stderr);
    // spider-lint: allow(check-policy) this IS the policy layer — kFatal failures terminate here by design
    std::abort();
  }
  {
    std::lock_guard<std::mutex> lock(telemetry::process_registry_mutex());
    telemetry::process_registry().counter(counter_name(kind_)).inc();
  }
  std::lock_guard<std::mutex> lock(g_last_message_mutex);
  g_last_message = message;
}

}  // namespace detail
}  // namespace spider::check
