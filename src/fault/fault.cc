#include "fault/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "prof/prof.h"
#include "support/flags.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/spin.h"
#include "support/trace.h"

namespace fault {

namespace {

// Cold gates read on the hot paths; everything else lives behind g_mu.
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_watchdog_ns{0};
std::atomic<std::uint64_t> g_finalize_timeout_ms{0};
std::atomic<bool> g_record{false};

support::SpinLock g_mu;
Config g_config;

struct ChannelKey {
  int src, dst, lane;
  bool operator<(const ChannelKey& o) const {
    if (src != o.src) return src < o.src;
    if (dst != o.dst) return dst < o.dst;
    return lane < o.lane;
  }
};

// Per-channel sequence counters and per-sender decision counts (kill_after
// is expressed in sender-side wire decisions). Guarded by g_mu — only ever
// touched while injection is armed.
std::map<ChannelKey, std::uint64_t> g_channel_seq;
std::map<int, std::uint64_t> g_sender_decisions;
std::vector<Record> g_schedule;

// Thresholds precomputed from the probabilities: decision bits are compared
// against 24-bit (drop/dup) and 16-bit (delay) slices of the hash.
std::uint32_t g_drop_thresh = 0;
std::uint32_t g_dup_thresh = 0;
std::uint32_t g_delay_thresh = 0;

std::uint32_t scale(double p, std::uint32_t full) {
  p = std::clamp(p, 0.0, 1.0);
  return std::uint32_t(p * double(full) + 0.5);
}

void publish_locked() {
  g_drop_thresh = scale(g_config.drop_p, 1u << 24);
  g_dup_thresh = scale(g_config.dup_p, 1u << 24);
  g_delay_thresh = scale(g_config.delay_p, 1u << 16);
  g_watchdog_ns.store(g_config.watchdog_ms * 1000000ull,
                      std::memory_order_relaxed);
  g_finalize_timeout_ms.store(g_config.finalize_timeout_ms,
                              std::memory_order_relaxed);
  bool on = g_config.drop_p > 0.0 || g_config.delay_p > 0.0 ||
            g_config.dup_p > 0.0 || g_config.kill_rank >= 0;
  g_enabled.store(on, std::memory_order_release);
}

// The schedule hash: decision bits for the n-th message on a channel are a
// pure function of (seed, src, dst, lane, n).
std::uint64_t decision_bits(std::uint64_t seed, const ChannelKey& k,
                            std::uint64_t seq) {
  std::uint64_t chan = (std::uint64_t(std::uint32_t(k.src)) << 34) ^
                       (std::uint64_t(std::uint32_t(k.dst)) << 2) ^
                       std::uint64_t(std::uint32_t(k.lane));
  return support::SplitMix64::mix(support::SplitMix64::mix(seed ^ chan) ^
                                  support::SplitMix64::mix(seq + 1));
}

struct Diagnostic {
  int id;
  std::string name;
  DiagnosticFn fn;
};
std::mutex g_diag_mu;
std::vector<Diagnostic> g_diagnostics;
int g_diag_next_id = 1;

// Parse one "key=value" pair shared by the flag and env front ends.
void apply_kv(Config& c, const std::string& key, const std::string& val) {
  auto as_u64 = [&] { return std::strtoull(val.c_str(), nullptr, 0); };
  auto as_f = [&] { return std::strtod(val.c_str(), nullptr); };
  if (key == "seed") {
    c.seed = as_u64();
  } else if (key == "drop_p") {
    c.drop_p = as_f();
  } else if (key == "delay_p") {
    c.delay_p = as_f();
  } else if (key == "delay_us") {
    c.delay_us = std::uint32_t(as_u64());
  } else if (key == "dup_p") {
    c.dup_p = as_f();
  } else if (key == "kill_rank") {
    // R or R@t: rank R dies after its t-th wire decision as a sender.
    auto at = val.find('@');
    c.kill_rank = int(std::strtol(val.c_str(), nullptr, 0));
    c.kill_after =
        at == std::string::npos
            ? 0
            : std::strtoull(val.c_str() + at + 1, nullptr, 0);
  } else if (key == "watchdog_ms") {
    c.watchdog_ms = as_u64();
  } else if (key == "finalize_timeout_ms") {
    c.finalize_timeout_ms = as_u64();
  } else {
    std::fprintf(stderr, "fault: unknown HCMPI_FAULT key '%s'\n", key.c_str());
  }
}

// Run the env front end once before main so plain gtest binaries (the ctest
// chaos job) pick up HCMPI_FAULT without any wiring of their own.
struct EnvInit {
  EnvInit() { configure_from_env(); }
} g_env_init;

}  // namespace

void configure(const Config& cfg) {
  std::lock_guard<support::SpinLock> lk(g_mu);
  g_config = cfg;
  publish_locked();
}

void configure(const support::Flags& flags) {
  std::lock_guard<support::SpinLock> lk(g_mu);
  Config c = g_config;
  struct {
    const char* flag;
    const char* key;
  } keys[] = {
      {"fault-seed", "seed"},
      {"fault-drop-p", "drop_p"},
      {"fault-delay-p", "delay_p"},
      {"fault-delay-us", "delay_us"},
      {"fault-dup-p", "dup_p"},
      {"fault-kill-rank", "kill_rank"},
      {"fault-watchdog-ms", "watchdog_ms"},
      {"fault-finalize-timeout-ms", "finalize_timeout_ms"},
  };
  for (const auto& k : keys) {
    if (flags.has(k.flag)) apply_kv(c, k.key, flags.get(k.flag, ""));
  }
  g_config = c;
  publish_locked();
}

void configure_from_env() {
  const char* env = std::getenv("HCMPI_FAULT");
  if (env == nullptr || *env == '\0') return;
  std::lock_guard<support::SpinLock> lk(g_mu);
  Config c = g_config;
  std::string body(env);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::string kv = body.substr(pos, comma - pos);
    auto eq = kv.find('=');
    if (eq != std::string::npos) {
      apply_kv(c, kv.substr(0, eq), kv.substr(eq + 1));
    }
    pos = comma + 1;
  }
  g_config = c;
  publish_locked();
}

void reset() {
  std::lock_guard<support::SpinLock> lk(g_mu);
  g_config = Config{};
  g_channel_seq.clear();
  g_sender_decisions.clear();
  g_schedule.clear();
  g_record.store(false, std::memory_order_relaxed);
  publish_locked();
}

const Config& config() { return g_config; }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t watchdog_ns() {
  return g_watchdog_ns.load(std::memory_order_relaxed);
}

std::uint64_t finalize_timeout_ms() {
  return g_finalize_timeout_ms.load(std::memory_order_relaxed);
}

Decision decide(int src, int dst, int lane) {
  ChannelKey key{src, dst, lane};
  Decision d;
  std::uint64_t seed, bits;
  std::uint32_t delay_us_cfg;
  {
    std::lock_guard<support::SpinLock> lk(g_mu);
    d.seq = g_channel_seq[key]++;
    ++g_sender_decisions[src];
    seed = g_config.seed;
    delay_us_cfg = g_config.delay_us;
    bits = decision_bits(seed, key, d.seq);
    d.drop = (std::uint32_t(bits) & 0xFFFFFFu) < g_drop_thresh;
    d.dup = (std::uint32_t(bits >> 24) & 0xFFFFFFu) < g_dup_thresh;
    if ((std::uint32_t(bits >> 48) & 0xFFFFu) < g_delay_thresh) {
      d.delay_us = delay_us_cfg;
    }
    if (g_record.load(std::memory_order_relaxed)) {
      g_schedule.push_back(Record{src, dst, lane, d.seq,
                                  std::uint8_t(d.drop), std::uint8_t(d.dup),
                                  d.delay_us});
    }
  }
  if (d.drop || d.dup || d.delay_us != 0) {
    auto& reg = support::MetricsRegistry::global();
    if (d.drop) reg.counter("fault.injected.drop").add();
    if (d.dup) reg.counter("fault.injected.dup").add();
    if (d.delay_us != 0) reg.counter("fault.injected.delay").add();
    const prof::Probe p;
    const auto to = std::uint32_t(dst);
    if (d.drop) p.instant(support::trace::Ev::kFaultDrop, to, d.seq);
    if (d.dup) p.instant(support::trace::Ev::kFaultDup, to, d.seq);
    if (d.delay_us != 0) {
      p.instant(support::trace::Ev::kFaultDelay, to, d.delay_us);
    }
  }
  return d;
}

bool rank_dead(int rank) {
  if (!enabled()) return false;
  std::lock_guard<support::SpinLock> lk(g_mu);
  if (g_config.kill_rank != rank) return false;
  auto it = g_sender_decisions.find(rank);
  std::uint64_t sent = it == g_sender_decisions.end() ? 0 : it->second;
  return sent >= g_config.kill_after;
}

std::uint32_t retry_backoff(std::uint32_t attempt) {
  std::uint32_t us = std::min<std::uint32_t>(32u << std::min(attempt, 6u),
                                             2000u);
  auto& reg = support::MetricsRegistry::global();
  reg.counter("retry.count").add();
  reg.histogram("retry.backoff_us").add(double(us));
  prof::Probe().instant(support::trace::Ev::kRetry, attempt, us);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  return us;
}

bool cross_in_memory(int src, int dst) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (rank_dead(src) || rank_dead(dst)) return false;
    const Decision d = decide(src, dst);
    if (d.delay_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
    }
    if (!d.drop) return true;
    retry_backoff(attempt);
  }
}

void record_schedule(bool on) {
  std::lock_guard<support::SpinLock> lk(g_mu);
  if (on) g_schedule.clear();
  g_record.store(on, std::memory_order_relaxed);
}

std::vector<Record> schedule() {
  std::lock_guard<support::SpinLock> lk(g_mu);
  std::vector<Record> out = g_schedule;
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  });
  return out;
}

int register_diagnostic(std::string name, DiagnosticFn fn) {
  std::lock_guard<std::mutex> lk(g_diag_mu);
  int id = g_diag_next_id++;
  g_diagnostics.push_back({id, std::move(name), std::move(fn)});
  return id;
}

void unregister_diagnostic(int id) {
  std::lock_guard<std::mutex> lk(g_diag_mu);
  std::erase_if(g_diagnostics,
                [id](const Diagnostic& d) { return d.id == id; });
}

void dump_diagnostics(std::FILE* f) {
  std::lock_guard<std::mutex> lk(g_diag_mu);
  for (const Diagnostic& d : g_diagnostics) {
    std::fprintf(f, "  -- diagnostic: %s --\n", d.name.c_str());
    d.fn(f);
  }
}

}  // namespace fault
