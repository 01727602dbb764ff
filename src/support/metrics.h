// Process-wide metrics registry: named counters, gauges and histograms,
// mergeable across ranks (rank-local Context/Runtime/Space objects add to the
// entries directly or export their counters at teardown; World-level code or
// the bench harness merges and dumps one block).
//
// Every entry is lock-free and fixed-size after construction. Counters are
// relaxed atomics, safe to bump from any thread at ~1 ns. A histogram is one
// log-linear array of relaxed-atomic buckets: count, sum, min and max are
// exact, percentiles are resolved to one bucket (1/16 of a power of two),
// and adding a sample neither locks nor allocates, so telemetry can stay on
// in a long run without its histograms growing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace support {

class MetricsRegistry {
 public:
  class Counter {
   public:
    void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

   private:
    std::atomic<std::uint64_t> v_{0};
  };

  class Gauge {
   public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<double> v_{0.0};
  };

  class Histogram {
   public:
    // Values are bucketed by their integer part: every integer below
    // 2^(kSubBits+1) has a bucket of its own, and each later power of two
    // splits into 2^kSubBits equal buckets. Negative values count as 0 and
    // values past 2^64 as the last bucket; min, max and sum keep them exact.
    static constexpr int kSubBits = 4;
    static constexpr std::size_t kBuckets = std::size_t(65 - kSubBits)
                                            << kSubBits;

    static std::size_t bucket_of(double x) {
      constexpr std::uint64_t kSub = std::uint64_t(1) << kSubBits;
      if (!(x >= 1.0)) return 0;                  // below 1, negative or NaN
      if (x >= 0x1p64) return kBuckets - 1;       // 2^64 and past
      const auto v = std::uint64_t(x);
      if (v < 2 * kSub) return std::size_t(v);
      const int shift = 63 - std::countl_zero(v) - kSubBits;  // >= 1
      return std::size_t(shift + 1) * kSub +
             std::size_t((v >> shift) & (kSub - 1));
    }
    // The smallest value of bucket `i` and its width.
    static double bucket_lower(std::size_t i);
    static double bucket_width(std::size_t i);

    void add(double x) {
      buckets_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(x, std::memory_order_relaxed);
      lower_to(min_, x);
      raise_to(max_, x);
    }
    // Folds `other`'s samples in (self-merge is a no-op).
    void merge(const Histogram& other);

    std::uint64_t count() const;
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const;
    double min() const;
    double max() const;
    // Sample standard deviation about the exact mean, with each sample at
    // its bucket's midpoint.
    double stddev() const;
    // p in [0, 100], nearest rank: a value inside the bucket that holds the
    // ranked sample, clamped to [min, max]. 0 when empty.
    double percentile(double p) const;

   private:
    static void lower_to(std::atomic<double>& a, double x) {
      double cur = a.load(std::memory_order_relaxed);
      while (x < cur &&
             !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
      }
    }
    static void raise_to(std::atomic<double>& a, double x) {
      double cur = a.load(std::memory_order_relaxed);
      while (x > cur &&
             !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
      }
    }

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  };

  // Lookup-or-create; returned references stay valid for the registry's
  // lifetime (entries are heap-allocated and never removed), so hot sites
  // may cache them in a function-local static.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Point reads for tests; 0 / empty when absent.
  std::uint64_t counter_value(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  // Folds `other` in: counters add, gauges take the latest (other wins),
  // histograms add bucket by bucket.
  void merge(const MetricsRegistry& other);

  // Sorted, aligned text block (one line per metric).
  std::string dump() const;
  void dump(std::FILE* f) const;

  // Machine-readable export (--metrics-json): one JSON object with
  // "counters" (name -> integer), "gauges" (name -> number) and "hists"
  // (name -> {count, mean, stddev, min, max, sum, p50, p90, p95, p99}).
  // The bench harness captures runtime counters through this instead of
  // scraping the text dump.
  std::string dump_json() const;
  bool write_json(const std::string& path) const;

  // The process-wide instance runtimes export into at teardown.
  static MetricsRegistry& global();

 private:
  // Entry pointers, copied under the map lock. Entries are never removed,
  // so the pointers stay valid after it is released.
  struct Entries {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const Histogram*>> hists;
  };
  Entries entries() const;

  mutable std::mutex mu_;  // guards the maps, not the entries
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace support
