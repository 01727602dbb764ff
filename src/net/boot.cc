#include "net/boot.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "support/flags.h"

namespace net {

namespace {

std::atomic<int> g_mode{-1};  // -1 = not yet resolved from the environment

int resolve_mode_from_env() {
  const char* e = std::getenv("HCMPI_TRANSPORT");
  Mode m = Mode::kThread;
  if (e != nullptr) parse_mode(e, &m);  // unknown values keep the default
  return int(m);
}

long env_long(const char* name, long fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  long v = std::strtol(e, &end, 10);
  return end == e ? fallback : v;
}

ProcEnv read_proc_env() {
  ProcEnv p;
  const char* proc = std::getenv("HCMPI_PROC");
  if (proc != nullptr && *proc != '\0') {
    p.launched = true;
    p.proc = int(env_long("HCMPI_PROC", 0));
    p.nprocs = int(env_long("HCMPI_NPROCS", 1));
    if (p.nprocs < 1) p.nprocs = 1;
    if (p.proc < 0 || p.proc >= p.nprocs) p.proc = 0;
  }
  p.ranks_per_proc = int(env_long("HCMPI_RANKS_PER_PROC", 0));
  const char* sess = std::getenv("HCMPI_SESSION");
  if (sess != nullptr) p.session = sess;
  p.heartbeat_ms =
      std::uint32_t(env_long("HCMPI_NET_HEARTBEAT_MS", long(p.heartbeat_ms)));
  p.death_timeout_ms = std::uint32_t(
      env_long("HCMPI_NET_DEATH_TIMEOUT_MS", long(p.death_timeout_ms)));
  p.connect_window_ms = std::uint32_t(
      env_long("HCMPI_NET_CONNECT_MS", long(p.connect_window_ms)));
  p.rto_ms = std::uint32_t(env_long("HCMPI_NET_RTO_MS", long(p.rto_ms)));
  p.sendq_cap =
      std::size_t(env_long("HCMPI_NET_SENDQ_CAP", long(p.sendq_cap)));
  p.shutdown_timeout_ms = std::uint32_t(
      env_long("HCMPI_NET_SHUTDOWN_MS", long(p.shutdown_timeout_ms)));
  return p;
}

std::mutex g_env_mu;
ProcEnv g_env;
bool g_env_loaded = false;

}  // namespace

bool parse_mode(const std::string& s, Mode* out) {
  if (s == "thread") {
    *out = Mode::kThread;
    return true;
  }
  if (s == "socket") {
    *out = Mode::kSocket;
    return true;
  }
  return false;
}

Mode mode() {
  int m = g_mode.load(std::memory_order_acquire);
  if (m < 0) {
    m = resolve_mode_from_env();
    int expected = -1;
    if (!g_mode.compare_exchange_strong(expected, m,
                                        std::memory_order_acq_rel)) {
      m = expected;
    }
  }
  return Mode(m);
}

void set_mode(Mode m) { g_mode.store(int(m), std::memory_order_release); }

void configure(const support::Flags& flags) {
  const std::string t = flags.get("transport", "");
  if (t.empty()) return;
  Mode m;
  if (parse_mode(t, &m)) set_mode(m);
}

const ProcEnv& proc_env() {
  std::lock_guard<std::mutex> lk(g_env_mu);
  if (!g_env_loaded) {
    g_env = read_proc_env();
    g_env_loaded = true;
  }
  return g_env;
}

void reload_proc_env() {
  std::lock_guard<std::mutex> lk(g_env_mu);
  g_env = read_proc_env();
  g_env_loaded = true;
  g_mode.store(resolve_mode_from_env(), std::memory_order_release);
}

}  // namespace net
