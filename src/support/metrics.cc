#include "support/metrics.h"

#include <vector>

namespace support {

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

void MetricsRegistry::merge(const MetricsRegistry& other) {
  if (&other == this) return;
  // Copy the other side's entry pointers under its lock, then fold in
  // without holding both (entries are never deleted, so the pointers stay
  // valid; counter/gauge reads are atomic, histogram merge locks itself).
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lk(other.mu_);
    for (const auto& [n, c] : other.counters_) cs.emplace_back(n, c.get());
    for (const auto& [n, g] : other.gauges_) gs.emplace_back(n, g.get());
    for (const auto& [n, h] : other.histograms_) hs.emplace_back(n, h.get());
  }
  for (const auto& [n, c] : cs) counter(n).add(c->value());
  for (const auto& [n, g] : gs) gauge(n).set(g->value());
  for (const auto& [n, h] : hs) histogram(n).merge(*h);
}

std::string MetricsRegistry::dump() const {
  // Snapshot entry pointers under the map lock, format outside it.
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [n, c] : counters_) cs.emplace_back(n, c.get());
    for (const auto& [n, g] : gauges_) gs.emplace_back(n, g.get());
    for (const auto& [n, h] : histograms_) hs.emplace_back(n, h.get());
  }
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
    Stats s = h->stats();
    std::snprintf(buf, sizeof buf,
                  "hist     %-44s count=%llu mean=%.1f p50=%.1f p95=%.1f "
                  "max=%.1f\n",
                  n.c_str(), (unsigned long long)s.count(), s.mean(),
                  h->percentile(50), h->percentile(95), s.max());
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
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [n, c] : counters_) cs.emplace_back(n, c.get());
    for (const auto& [n, g] : gauges_) gs.emplace_back(n, g.get());
    for (const auto& [n, h] : histograms_) hs.emplace_back(n, h.get());
  }
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
    Stats s = h->stats();
    auto field = [&](const char* k, double v, bool last = false) {
      out += "\"";
      out += k;
      out += "\": ";
      append_num(out, v);
      if (!last) out += ", ";
    };
    field("count", double(s.count()));
    field("mean", s.mean());
    field("stddev", s.stddev());
    field("min", s.min());
    field("max", s.max());
    field("sum", s.sum());
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
