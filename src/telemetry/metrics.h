// Metrics registry — the naming/aggregation layer every subsystem reports
// through (ROADMAP: "unified telemetry layer").
//
// Model: a Registry is *per world* (one per Simulator, unsynchronized — the
// Simulator threading contract already pins a world to one thread), and
// metric objects returned by counter()/gauge()/histogram() are stable
// references that call sites cache once and bump directly, so the hot-path
// cost of a counter is one pointer dereference and an add. Cross-world
// aggregation happens on immutable MetricsSnapshots, merged deterministically
// in sweep submission order (see core::SweepReport::merged_telemetry), which
// is what makes a 1-thread and an 8-thread sweep export byte-identical
// reports.
//
// Three metric kinds:
//   Counter   — monotonically increasing u64;
//   Gauge     — signed level with a high-water mark (queue depths, PSM
//               buffer occupancy);
//   Histogram — doubles bucketed into *fixed* log-scale buckets (exact
//               power-of-two boundaries from 1e-6 up, so bucketing is
//               bit-deterministic across platforms), plus count/sum/min/max.
//
// Counters back the check-failure shim (core/check.cc); every genuinely hot
// path publishes plain members through a collector instead of touching
// Counter at event rate. The runtime knob for the expensive pillar (tracing)
// lives on TraceRecorder, not here.
//
// This header is a dependency leaf (it may not use SPIDER_CHECK: check.cc
// itself reports its failure counters through the process registry below).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spider::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void reset() { value_ = 0; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    high_water_ = std::max(high_water_, v);
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  // Raises the high-water mark without touching the level — for collectors
  // that track peaks at event granularity but only publish at snapshot time.
  void record_peak(std::int64_t v) {
    high_water_ = std::max(high_water_, v);
  }
  void reset() { value_ = 0; high_water_ = 0; }
  std::int64_t value() const { return value_; }
  std::int64_t high_water() const { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

// Log-scale histogram with fixed boundaries. Bucket 0 is the underflow
// bucket (v < 1e-6, also NaN and negatives); bucket i for 1 <= i <= kSpan
// covers [1e-6 * 2^(i-1), 1e-6 * 2^i); the last bucket is overflow. The
// boundaries are exact IEEE doublings of 1e-6, so bucket_index() is
// bit-deterministic everywhere.
class Histogram {
 public:
  static constexpr std::size_t kSpan = 54;           // doubling buckets
  static constexpr std::size_t kBuckets = kSpan + 2; // + underflow + overflow
  static constexpr double kFirstBound = 1e-6;

  // Inclusive lower / exclusive upper bound of bucket i. Bucket 0 has lower
  // bound -inf; the overflow bucket has upper bound +inf.
  static double bucket_lower_bound(std::size_t i);
  static double bucket_upper_bound(std::size_t i);
  static std::size_t bucket_index(double v);

  void add(double v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[bucket_index(v)];
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  // Nearest-bucket quantile estimate: the upper bound of the bucket where
  // the cumulative count crosses q (min/max for the edge buckets). Good
  // enough for summaries; exact samples stay in trace::EmpiricalCdf.
  double quantile(double q) const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, kBuckets> buckets_{};
};

// Immutable, mergeable view of a registry — what crosses thread boundaries.
// Vectors are sorted by name; merge_from is a sorted union with counters and
// histogram contents summed and gauge high-waters maxed.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
  std::int64_t high_water = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Sparse (bucket index, count) pairs, ascending by index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // Deterministic merge: counters/histograms add, gauge values add and
  // high-waters take the max (a merged gauge reads as "sum of final levels,
  // worst single-world peak").
  void merge_from(const MetricsSnapshot& other);

  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;
  std::uint64_t counter_value(std::string_view name) const {
    const CounterSample* c = find_counter(name);
    return c ? c->value : 0;
  }
};

// Name -> metric map with stable references (std::map nodes never move).
// Iteration order is lexicographic, which is what makes snapshot() — and
// therefore every export — deterministic.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  void reset();  // zeroes every registered metric (keeps registrations)

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Ordered read-only views for in-process consumers that want to walk the
  // live maps without paying for a snapshot (the stream publisher's
  // changed-metric scan). Map keys are stable for the registry's lifetime,
  // so `&entry.first` may be cached across calls.
  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Process-wide registry for metrics that outlive any single world — the
// SPIDER_CHECK failure counters report here (core/check.cc), keeping one
// export path for health metrics. Unlike per-world registries this one *is*
// shared across threads: hold process_registry_mutex() around any access.
Registry& process_registry();
std::mutex& process_registry_mutex();

}  // namespace spider::telemetry
