// Process-wide metrics registry: named counters, gauges and histograms,
// mergeable across ranks (each rank-local Context/Runtime/Space exports its
// counters at teardown; World-level code or the bench harness merges and
// dumps one block).
//
// Counters are relaxed atomics — safe to bump from any thread at ~1 ns.
// Histograms wrap the existing Stats/Percentiles under a small lock; they
// are meant for teardown-time aggregation and coarse-grained samples (e.g.
// one comm-task lifecycle latency per completion), not per-event hot paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/stats.h"

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
    void add(double x) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.add(x);
      pct_.add(x);
    }
    void merge(const Histogram& other) {
      // Lock ordering by address (self-merge is a no-op).
      if (&other == this) return;
      std::scoped_lock lk(mu_, other.mu_);
      stats_.merge(other.stats_);
      pct_.merge(other.pct_);
    }
    Stats stats() const {
      std::lock_guard<std::mutex> lk(mu_);
      return stats_;
    }
    double percentile(double p) const {
      std::lock_guard<std::mutex> lk(mu_);
      return pct_.percentile(p);
    }

   private:
    mutable std::mutex mu_;
    Stats stats_;
    mutable Percentiles pct_;  // percentile() reorders samples
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
  // histograms merge sample sets.
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
  mutable std::mutex mu_;  // guards the maps, not the entries
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace support
