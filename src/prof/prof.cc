#include "prof/prof.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "support/trace.h"

namespace prof {

namespace {

// --- registry ---------------------------------------------------------------

struct GaugeSampler {
  std::uint64_t id = 0;
  std::function<void()> fn;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadProfile>> profiles;

  // Sampler configuration (guarded by mu).
  bool sampler_running = false;
  int hz = 997;

  // Cadence thread: samples every live profile at `hz` while the sampler
  // runs and services gauge callbacks while telemetry is on; it exits on its
  // own when neither needs it, and is respawned on demand.
  std::mutex thread_mu;
  std::atomic<bool> cadence_alive{false};

  std::mutex gauges_mu;  // held across callback invocation (see add_sampler)
  std::vector<GaugeSampler> gauges;
  std::atomic<std::uint64_t> next_gauge_id{1};
};

constexpr std::chrono::milliseconds kGaugePeriod{10};

Registry& reg() {
  static Registry* r = new Registry;  // never destroyed (threads may outlive)
  return *r;
}

thread_local ThreadProfile* tl_profile = nullptr;

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
    bool sampling;
    std::chrono::nanoseconds period;
    {
      std::lock_guard<std::mutex> lk(r.mu);
      sampling = r.sampler_running;
      period = std::chrono::nanoseconds(1000000000LL / r.hz);
    }
    bool telem = telemetry();
    if (!sampling && !telem) {
      // Exit if still nothing to do when rechecked under the spawn lock
      // (ensure_cadence_thread holds thread_mu while testing cadence_alive,
      // so deciding under the same lock avoids a missed respawn).
      std::lock_guard<std::mutex> lk(r.thread_mu);
      std::lock_guard<std::mutex> lk2(r.mu);
      if (!r.sampler_running && !telemetry()) {
        r.cadence_alive.store(false, std::memory_order_release);
        return;
      }
      continue;
    }
    auto now = clock::now();
    if (sampling && now >= next_sample) {
      sample_all();
      // Ticks fall due a period apart, so a late wake-up does not lower the
      // rate; after a stall the schedule restarts instead of bursting.
      next_sample += period;
      if (next_sample <= now) next_sample = now + period;
    }
    if (telem && now >= next_gauge) {
      run_gauges();
      next_gauge = now + kGaugePeriod;
    }
    auto wake = now + kGaugePeriod;  // re-reads the gates at least this often
    if (sampling) wake = std::min(wake, next_sample);
    if (telem) wake = std::min(wake, next_gauge);
    std::this_thread::sleep_until(wake);
  }
}

// A bare pthread, not a std::thread: a std::thread frees its start state on
// the new thread, and that first free hands the thread a malloc arena of its
// own, which moves the heap of every worker started after it (BM_TaskSpawn
// ran 2.5-4% slower beside a std::thread that only slept). The loop itself
// allocates nothing while telemetry is off.
void ensure_cadence_thread() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.thread_mu);
  if (r.cadence_alive.load(std::memory_order_acquire)) return;
  r.cadence_alive.store(true, std::memory_order_release);
  pthread_t t;
  auto body = [](void*) -> void* {
    cadence_loop();
    return nullptr;
  };
  if (pthread_create(&t, nullptr, body, nullptr) != 0) {
    r.cadence_alive.store(false, std::memory_order_release);
    return;
  }
  pthread_detach(t);
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
  auto p = std::make_unique<ThreadProfile>();
  p->name = name;
  tl_profile = p.get();
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.profiles.push_back(std::move(p));
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
  tl_profile = nullptr;
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);  // no sample lands while we decide
  bool sampled = false;
  for (const auto& n : p->samples) {
    sampled = sampled || n.load(std::memory_order_relaxed) != 0;
  }
  if (sampled) {
    p->live.store(false, std::memory_order_release);
    return;
  }
  std::erase_if(r.profiles, [p](const auto& q) { return q.get() == p; });
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

std::uint64_t Probe::stamp_slow(Ev e, std::uint32_t a, std::uint64_t b) const {
  const std::uint64_t now = support::trace::now_ns();
  if (e != Ev::kNone && tracing()) {
    support::trace::Ring* r =
        ring_ != nullptr ? ring_ : support::trace::thread_ring();
    if (r != nullptr) r->emit(e, now, a, b);
  }
  return now;
}

// --- gates ------------------------------------------------------------------

void set_enabled(bool on) {
  support::trace::set_gate(support::trace::kGateProf, on);
}

void set_telemetry(bool on) {
  support::trace::set_gate(support::trace::kGateTelemetry, on);
  if (on) ensure_cadence_thread();
}

// --- sampler lifecycle ------------------------------------------------------

bool start(const Config& cfg) {
  Registry& r = reg();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.sampler_running) return false;
    r.hz = cfg.hz > 0 ? cfg.hz : 997;
    r.sampler_running = true;
  }
  set_enabled(true);
  ensure_cadence_thread();
  return true;
}

void stop() {
  Registry& r = reg();
  set_enabled(false);
  std::lock_guard<std::mutex> lk(r.mu);
  // The cadence loop notices and exits, or keeps running gauges while
  // telemetry is on.
  r.sampler_running = false;
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
  std::erase_if(r.gauges, [id](const GaugeSampler& g) { return g.id == id; });
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

bool write_report(const std::string& path) {
  const std::string body = collapsed_stacks();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  bool ok = n == body.size();
  return std::fclose(f) == 0 && ok;
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
  // Live threads keep their tl_profile pointer, so their profiles stay, with
  // the counts zeroed; dead ones go.
  std::erase_if(r.profiles, [](const auto& p) {
    return !p->live.load(std::memory_order_acquire);
  });
  for (auto& p : r.profiles) {
    for (auto& n : p->samples) n.store(0, std::memory_order_relaxed);
  }
}

}  // namespace prof
