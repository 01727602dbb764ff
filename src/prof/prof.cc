#include "prof/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "support/trace.h"

#if defined(__linux__)
#include <csignal>
#include <ctime>
#include <sys/syscall.h>
#include <unistd.h>
#define HCPROF_HAVE_THREAD_TIMERS 1
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif

namespace prof {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_telemetry{false};
}  // namespace detail

namespace {

// --- registry ---------------------------------------------------------------

struct GaugeSampler {
  std::uint64_t id = 0;
  std::function<void()> fn;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadProfile>> profiles;

  // Sampler configuration (guarded by mu).
  bool sampler_running = false;
  bool signal_mode = true;
  int hz = 997;

  // Cadence thread: services sampler-thread ticks and gauge callbacks;
  // exits on its own when neither profiling (thread mode) nor telemetry
  // needs it, and is respawned on demand.
  std::mutex thread_mu;
  std::thread cadence;
  std::atomic<bool> cadence_alive{false};
  std::atomic<bool> cadence_stop{false};

  std::mutex gauges_mu;  // held across callback invocation (see add_sampler)
  std::vector<GaugeSampler> gauges;
  std::atomic<std::uint64_t> next_gauge_id{1};
  std::atomic<int> gauge_period_ms{10};
};

Registry& reg() {
  static Registry* r = new Registry;  // never destroyed (threads may outlive)
  return *r;
}

thread_local ThreadProfile* tl_profile = nullptr;

// --- per-thread CPU-time timers (Linux) -------------------------------------

#if HCPROF_HAVE_THREAD_TIMERS

void sigprof_handler(int) {
  // Async-signal-safe: one TLS read, two relaxed atomic ops, nothing else.
  ThreadProfile* p = tl_profile;
  if (!p) return;
  std::uint8_t s = p->state.load(std::memory_order_relaxed);
  if (s < kNumStates)
    p->samples[s].fetch_add(1, std::memory_order_relaxed);
}

void install_sigprof_handler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = sigprof_handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

// Arms a CPU-time timer targeting `p`'s kernel thread. Registry mutex held.
bool arm_timer_locked(ThreadProfile* p, int hz) {
  if (p->timer_armed || p->tid == 0) return p->timer_armed;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = static_cast<pid_t>(p->tid);
  timer_t t;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t) != 0) return false;
  long ns = 1000000000L / (hz > 0 ? hz : 1);
  struct itimerspec its;
  its.it_interval.tv_sec = ns / 1000000000L;
  its.it_interval.tv_nsec = ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(t, 0, &its, nullptr) != 0) {
    timer_delete(t);
    return false;
  }
  static_assert(sizeof(timer_t) <= sizeof(void*), "timer_t fits in void*");
  std::memcpy(&p->timer, &t, sizeof t);
  p->timer_armed = true;
  return true;
}

void disarm_timer_locked(ThreadProfile* p) {
  if (!p->timer_armed) return;
  timer_t t;
  std::memcpy(&t, &p->timer, sizeof t);
  timer_delete(t);
  p->timer = nullptr;
  p->timer_armed = false;
}

std::int64_t current_tid() {
  return static_cast<std::int64_t>(::syscall(SYS_gettid));
}

bool thread_timers_available() {
  // Probe once: create-and-delete a timer for this thread.
  static const bool ok = [] {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = static_cast<pid_t>(current_tid());
    timer_t t;
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t) != 0) return false;
    timer_delete(t);
    return true;
  }();
  return ok;
}

#else  // !HCPROF_HAVE_THREAD_TIMERS

bool arm_timer_locked(ThreadProfile*, int) { return false; }
void disarm_timer_locked(ThreadProfile*) {}
void install_sigprof_handler() {}
std::int64_t current_tid() { return 0; }
bool thread_timers_available() { return false; }

#endif

// --- cadence thread ---------------------------------------------------------

void run_gauges() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.gauges_mu);
  for (auto& g : r.gauges) g.fn();
}

void cadence_loop() {
  Registry& r = reg();
  using clock = std::chrono::steady_clock;
  auto next_sample = clock::now();
  auto next_gauge = clock::now();
  for (;;) {
    if (r.cadence_stop.load(std::memory_order_relaxed)) break;
    bool thread_sampling;
    int hz;
    {
      std::lock_guard<std::mutex> lk(r.mu);
      thread_sampling = r.sampler_running && !r.signal_mode;
      hz = r.hz;
    }
    bool telem = telemetry();
    if (!thread_sampling && !telem) {
      // Exit if still nothing to do when rechecked under the spawn lock
      // (ensure_cadence_thread holds thread_mu while testing cadence_alive,
      // so deciding under the same lock avoids a missed respawn).
      std::lock_guard<std::mutex> lk(r.thread_mu);
      std::lock_guard<std::mutex> lk2(r.mu);
      if (!(r.sampler_running && !r.signal_mode) && !telemetry()) {
        r.cadence_alive.store(false, std::memory_order_release);
        return;
      }
      continue;
    }
    auto now = clock::now();
    if (thread_sampling && now >= next_sample) {
      sample_all();
      next_sample = now + std::chrono::nanoseconds(1000000000LL /
                                                   (hz > 0 ? hz : 1));
    }
    if (telem && now >= next_gauge) {
      run_gauges();
      next_gauge = now + std::chrono::milliseconds(
                             r.gauge_period_ms.load(std::memory_order_relaxed));
    }
    auto wake = telem ? std::min(next_sample, next_gauge) : next_sample;
    if (!thread_sampling) wake = next_gauge;
    std::this_thread::sleep_until(std::min(wake, now + std::chrono::milliseconds(10)));
  }
  r.cadence_alive.store(false, std::memory_order_release);
}

void ensure_cadence_thread() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.thread_mu);
  if (r.cadence_alive.load(std::memory_order_acquire)) return;
  if (r.cadence.joinable()) r.cadence.join();  // reap a previous incarnation
  r.cadence_stop.store(false, std::memory_order_relaxed);
  r.cadence_alive.store(true, std::memory_order_release);
  r.cadence = std::thread(cadence_loop);
  r.cadence.detach();
}

}  // namespace

// --- names ------------------------------------------------------------------

const char* state_name(State s) {
  switch (s) {
    case State::kUnattributed: return "unattributed";
    case State::kTaskBody: return "task body";
    case State::kDequeOp: return "deque op";
    case State::kStealAttempt: return "steal attempt";
    case State::kCommProgress: return "comm progress";
    case State::kIdle: return "idle";
  }
  return "?";
}

// --- thread registration ----------------------------------------------------

void register_thread(const std::string& name) {
  if (tl_profile) {
    rename_thread(name);
    return;
  }
  auto p = std::make_shared<ThreadProfile>();
  p->name = name;
  p->tid = current_tid();
  Registry& r = reg();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    r.profiles.push_back(p);
    if (r.sampler_running && r.signal_mode) arm_timer_locked(p.get(), r.hz);
  }
  tl_profile = p.get();
}

void rename_thread(const std::string& name) {
  ThreadProfile* p = tl_profile;
  if (!p) {
    register_thread(name);
    return;
  }
  std::lock_guard<std::mutex> lk(reg().mu);  // name read under the same lock
  p->name = name;
}

void unregister_thread() {
  ThreadProfile* p = tl_profile;
  if (!p) return;
  enter_state(State::kUnattributed);  // a dead thread is in no state
  {
    std::lock_guard<std::mutex> lk(reg().mu);
    disarm_timer_locked(p);
    p->live.store(false, std::memory_order_release);
  }
  tl_profile = nullptr;
}

ThreadProfile* thread_profile() { return tl_profile; }

// --- state register ----------------------------------------------------------

State enter_state(State s) {
  // Load + store (not exchange): the state byte is owner-written, so a
  // plain pair is race-free and keeps the hot path at two relaxed byte ops.
  ThreadProfile* p = tl_profile;
  if (!p) return s;
  auto prev = static_cast<State>(p->state.load(std::memory_order_relaxed));
  p->state.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
  return prev;
}

// --- gates ------------------------------------------------------------------

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_telemetry(bool on) {
  detail::g_telemetry.store(on, std::memory_order_relaxed);
  if (on) ensure_cadence_thread();
}

// --- sampler lifecycle ------------------------------------------------------

bool start(const Config& cfg) {
  Registry& r = reg();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.sampler_running) return false;
    r.hz = cfg.hz > 0 ? cfg.hz : 997;
    r.signal_mode = cfg.use_signal && thread_timers_available();
    r.sampler_running = true;
    if (r.signal_mode) {
      install_sigprof_handler();
      for (auto& p : r.profiles)
        if (p->live.load(std::memory_order_acquire))
          arm_timer_locked(p.get(), r.hz);
    }
  }
  set_enabled(true);
  if (!r.signal_mode) ensure_cadence_thread();
  return true;
}

void stop() {
  Registry& r = reg();
  set_enabled(false);
  std::lock_guard<std::mutex> lk(r.mu);
  if (!r.sampler_running) return;
  r.sampler_running = false;
  for (auto& p : r.profiles) disarm_timer_locked(p.get());
  // Thread-mode cadence loop notices sampler_running=false and exits (or
  // keeps running gauges if telemetry is still on).
}

bool running() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.sampler_running;
}

void sample_all() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& p : r.profiles) {
    if (!p->live.load(std::memory_order_acquire)) continue;
    std::uint8_t s = p->state.load(std::memory_order_relaxed);
    if (s < kNumStates)
      p->samples[s].fetch_add(1, std::memory_order_relaxed);
  }
}

// --- gauge samplers ----------------------------------------------------------

std::uint64_t add_sampler(std::function<void()> fn) {
  Registry& r = reg();
  std::uint64_t id = r.next_gauge_id.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(r.gauges_mu);
    r.gauges.push_back({id, std::move(fn)});
  }
  if (telemetry()) ensure_cadence_thread();
  return id;
}

void remove_sampler(std::uint64_t id) {
  Registry& r = reg();
  // gauges_mu is held across invocation, so once we hold it no removed
  // callback can still be running.
  std::lock_guard<std::mutex> lk(r.gauges_mu);
  r.gauges.erase(std::remove_if(r.gauges.begin(), r.gauges.end(),
                                [&](const GaugeSampler& g) {
                                  return g.id == id;
                                }),
                 r.gauges.end());
}

void set_gauge_period_ms(int ms) {
  reg().gauge_period_ms.store(ms > 0 ? ms : 1, std::memory_order_relaxed);
}

// --- cached hot-path histograms ---------------------------------------------

support::MetricsRegistry::Histogram& steal_latency_hist() {
  static auto& h =
      support::MetricsRegistry::global().histogram("sched.steal_latency_ns");
  return h;
}

support::MetricsRegistry::Histogram& task_granularity_hist() {
  static auto& h =
      support::MetricsRegistry::global().histogram("sched.task_granularity_ns");
  return h;
}

support::MetricsRegistry::Histogram& steal_batch_hist() {
  static auto& h =
      support::MetricsRegistry::global().histogram("sched.steal_batch");
  return h;
}

// --- reporting ---------------------------------------------------------------

std::uint64_t ThreadReport::total_samples() const {
  std::uint64_t t = 0;
  for (auto v : samples) t += v;
  return t;
}

std::vector<ThreadReport> report() {
  Registry& r = reg();
  std::vector<ThreadReport> out;
  std::lock_guard<std::mutex> lk(r.mu);
  out.reserve(r.profiles.size());
  for (auto& p : r.profiles) {
    ThreadReport tr;
    tr.name = p->name;
    tr.live = p->live.load(std::memory_order_acquire);
    for (int i = 0; i < kNumStates; ++i) {
      tr.samples[i] = p->samples[i].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(tr));
  }
  return out;
}

void export_metrics(support::MetricsRegistry& m) {
  auto reps = report();
  std::array<std::uint64_t, kNumStates> totals{};
  for (const auto& tr : reps)
    for (int i = 0; i < kNumStates; ++i) totals[i] += tr.samples[i];
  for (int i = 0; i < kNumStates; ++i) {
    if (!totals[i]) continue;
    std::string name = std::string("prof.samples.") +
                       state_name(static_cast<State>(i));
    std::replace(name.begin(), name.end(), ' ', '_');
    m.counter(name).add(totals[i]);
  }
  for (const auto& tr : reps) {
    std::uint64_t total = tr.total_samples();
    if (!total) continue;
    auto pct = [&](State s) {
      return 100.0 * double(tr.samples[static_cast<int>(s)]) / double(total);
    };
    m.histogram("prof.worker_task_pct").add(pct(State::kTaskBody));
    m.histogram("prof.worker_idle_pct").add(pct(State::kIdle));
    m.histogram("prof.worker_steal_pct").add(pct(State::kStealAttempt));
  }
}

std::string collapsed_stacks() {
  // Merge same-named threads (workers recur across Runtime instances).
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for (const auto& tr : report()) {
    for (int i = 0; i < kNumStates; ++i) {
      if (!tr.samples[i]) continue;
      std::string key =
          tr.name + ";" + state_name(static_cast<State>(i));
      auto it = std::find_if(lines.begin(), lines.end(),
                             [&](const auto& l) { return l.first == key; });
      if (it == lines.end())
        lines.emplace_back(key, tr.samples[i]);
      else
        it->second += tr.samples[i];
    }
  }
  std::string out;
  for (const auto& [key, n] : lines)
    out += key + " " + std::to_string(n) + "\n";
  return out;
}

namespace {
void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned{static_cast<unsigned char>(c)});
      out += buf;
    } else {
      out += c;
    }
  }
}
}  // namespace

std::string speedscope_json() {
  auto reps = report();
  // Frame table: thread names first, then the state names.
  std::vector<std::string> frames;
  auto frame_index = [&](const std::string& name) {
    for (std::size_t i = 0; i < frames.size(); ++i)
      if (frames[i] == name) return i;
    frames.push_back(name);
    return frames.size() - 1;
  };
  struct Prof {
    std::string name;
    std::vector<std::array<std::size_t, 2>> stacks;
    std::vector<std::uint64_t> weights;
    std::uint64_t total = 0;
  };
  std::vector<Prof> profs;
  for (const auto& tr : reps) {
    if (!tr.total_samples()) continue;
    Prof p;
    p.name = tr.name;
    std::size_t tf = frame_index(tr.name);
    for (int i = 0; i < kNumStates; ++i) {
      if (!tr.samples[i]) continue;
      std::size_t sf = frame_index(state_name(static_cast<State>(i)));
      p.stacks.push_back({tf, sf});
      p.weights.push_back(tr.samples[i]);
      p.total += tr.samples[i];
    }
    profs.push_back(std::move(p));
  }
  std::string out;
  out += "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",";
  out += "\"name\":\"hc-prof\",\"exporter\":\"hcmpi hc-prof\",";
  out += "\"activeProfileIndex\":0,\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"";
    json_escape(out, frames[i]);
    out += "\"}";
  }
  out += "]},\"profiles\":[";
  for (std::size_t i = 0; i < profs.size(); ++i) {
    const Prof& p = profs[i];
    if (i) out += ",";
    out += "{\"type\":\"sampled\",\"name\":\"";
    json_escape(out, p.name);
    // Appended piece by piece: GCC 12 at -O3 warns (-Wrestrict) on
    // `"literal" + std::to_string(...)`.
    out += "\",\"unit\":\"none\",\"startValue\":0,\"endValue\":";
    out += std::to_string(p.total);
    out += ",\"samples\":[";
    for (std::size_t j = 0; j < p.stacks.size(); ++j) {
      if (j) out += ",";
      out += "[";
      out += std::to_string(p.stacks[j][0]);
      out += ",";
      out += std::to_string(p.stacks[j][1]);
      out += "]";
    }
    out += "],\"weights\":[";
    for (std::size_t j = 0; j < p.weights.size(); ++j) {
      if (j) out += ",";
      out += std::to_string(p.weights[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool write_report(const std::string& path) {
  bool json = path.size() >= 5 &&
              path.compare(path.size() - 5, 5, ".json") == 0;
  std::string body = json ? speedscope_json() : collapsed_stacks();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return n == body.size();
}

std::string summary() {
  std::string out;
  char buf[256];
  for (const auto& tr : report()) {
    std::uint64_t total = tr.total_samples();
    if (!total) continue;
    std::snprintf(buf, sizeof buf, "%-14s %8llu samples", tr.name.c_str(),
                  (unsigned long long)total);
    out += buf;
    for (int i = 0; i < kNumStates; ++i) {
      double pct = 100.0 * double(tr.samples[i]) / double(total);
      if (pct < 0.05) continue;
      std::snprintf(buf, sizeof buf, "  %s=%.1f%%",
                    state_name(static_cast<State>(i)), pct);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

void reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& p : r.profiles) disarm_timer_locked(p.get());
  // Live threads keep their tl_profile pointer into a shared_ptr we still
  // hold; mark them dead rather than freeing so the pointer stays valid.
  std::vector<std::shared_ptr<ThreadProfile>> keep;
  for (auto& p : r.profiles) {
    if (p->live.load(std::memory_order_acquire)) {
      for (int i = 0; i < kNumStates; ++i) {
        p->samples[i].store(0, std::memory_order_relaxed);
      }
      keep.push_back(p);
    }
  }
  r.profiles.swap(keep);
}

}  // namespace prof
