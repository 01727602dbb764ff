#include "support/metrics.h"

#include <algorithm>
#include <cmath>

namespace support {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kSub = std::uint64_t(1)
                               << MetricsRegistry::Histogram::kSubBits;
}  // namespace

double MetricsRegistry::Histogram::bucket_lower(std::size_t i) {
  const std::size_t block = i >> kSubBits;
  if (block < 2) return double(i);
  return std::ldexp(double(kSub + (i & (kSub - 1))), int(block) - 1);
}

double MetricsRegistry::Histogram::bucket_width(std::size_t i) {
  const std::size_t block = i >> kSubBits;
  return block < 2 ? 1.0 : std::ldexp(1.0, int(block) - 1);
}

void MetricsRegistry::Histogram::merge(const Histogram& other) {
  if (&other == this) return;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  lower_to(min_, other.min_.load(std::memory_order_relaxed));
  raise_to(max_, other.max_.load(std::memory_order_relaxed));
}

std::uint64_t MetricsRegistry::Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double MetricsRegistry::Histogram::mean() const {
  const std::uint64_t n = count();
  return n != 0 ? sum() / double(n) : 0.0;
}

double MetricsRegistry::Histogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double MetricsRegistry::Histogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

namespace {
// The value a bucket stands for: the middle of the integers it holds, kept
// inside the exact extremes.
double representative(std::size_t i, double lo, double hi) {
  using H = MetricsRegistry::Histogram;
  const double v = H::bucket_lower(i) + (H::bucket_width(i) - 1.0) / 2.0;
  return std::clamp(v, lo, hi);
}
}  // namespace

double MetricsRegistry::Histogram::stddev() const {
  const std::uint64_t n = count();
  if (n < 2) return 0.0;
  const double mu = sum() / double(n);
  const double lo = min(), hi = max();
  double ss = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    const double d = representative(i, lo, hi) - mu;
    ss += double(c) * d * d;
  }
  return std::sqrt(ss / double(n - 1));
}

double MetricsRegistry::Histogram::percentile(double p) const {
  std::array<std::uint64_t, kBuckets> snap{};
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    n += snap[i];
  }
  if (n == 0) return 0.0;
  const double q = std::clamp(p, 0.0, 100.0) / 100.0;
  const auto rank = std::max<std::uint64_t>(
      1, std::uint64_t(std::ceil(q * double(n))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < kBuckets; ++i) {
    seen += snap[i];
    if (seen >= rank) break;
  }
  return representative(i, min(), max());
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.count(name) > 0;
}

MetricsRegistry::Entries MetricsRegistry::entries() const {
  Entries e;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [n, c] : counters_) e.counters.emplace_back(n, c.get());
  for (const auto& [n, g] : gauges_) e.gauges.emplace_back(n, g.get());
  for (const auto& [n, h] : histograms_) e.hists.emplace_back(n, h.get());
  return e;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  if (&other == this) return;
  // Copy the other side's entry pointers under its lock, then fold in
  // without holding both (entries are never deleted, so the pointers stay
  // valid, and every entry reads and merges through its own atomics).
  const auto [cs, gs, hs] = other.entries();
  for (const auto& [n, c] : cs) counter(n).add(c->value());
  for (const auto& [n, g] : gs) gauge(n).set(g->value());
  for (const auto& [n, h] : hs) histogram(n).merge(*h);
}

std::string MetricsRegistry::dump() const {
  // Snapshot entry pointers under the map lock, format outside it.
  const auto [cs, gs, hs] = entries();
  std::string out;
  char buf[256];
  for (const auto& [n, c] : cs) {
    std::snprintf(buf, sizeof buf, "counter  %-44s %llu\n", n.c_str(),
                  (unsigned long long)c->value());
    out += buf;
  }
  for (const auto& [n, g] : gs) {
    std::snprintf(buf, sizeof buf, "gauge    %-44s %.6g\n", n.c_str(),
                  g->value());
    out += buf;
  }
  for (const auto& [n, h] : hs) {
    std::snprintf(buf, sizeof buf,
                  "hist     %-44s count=%llu mean=%.1f p50=%.1f p95=%.1f "
                  "max=%.1f\n",
                  n.c_str(), (unsigned long long)h->count(), h->mean(),
                  h->percentile(50), h->percentile(95), h->max());
    out += buf;
  }
  return out;
}

void MetricsRegistry::dump(std::FILE* f) const {
  std::string s = dump();
  std::fwrite(s.data(), 1, s.size(), f);
}

namespace {
void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    unsigned{static_cast<unsigned char>(c)});
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}
}  // namespace

std::string MetricsRegistry::dump_json() const {
  const auto [cs, gs, hs] = entries();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [n, c] : cs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, n);
    out += "\": " + std::to_string(c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [n, g] : gs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, n);
    out += "\": ";
    append_num(out, g->value());
  }
  out += "\n  },\n  \"hists\": {";
  first = true;
  for (const auto& [n, h] : hs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, n);
    out += "\": {";
    auto field = [&](const char* k, double v, bool last = false) {
      out += "\"";
      out += k;
      out += "\": ";
      append_num(out, v);
      if (!last) out += ", ";
    };
    field("count", double(h->count()));
    field("mean", h->mean());
    field("stddev", h->stddev());
    field("min", h->min());
    field("max", h->max());
    field("sum", h->sum());
    field("p50", h->percentile(50));
    field("p90", h->percentile(90));
    field("p95", h->percentile(95));
    field("p99", h->percentile(99), /*last=*/true);
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::string body = dump_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  bool ok = n == body.size();
  return std::fclose(f) == 0 && ok;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // never destroyed
  return *r;
}

}  // namespace support
