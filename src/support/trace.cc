#include "support/trace.h"

#include "support/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace support::trace {

// ---------------------------------------------------------------------------
// Gate, clock, defaults
// ---------------------------------------------------------------------------

namespace {
std::uint64_t steady_now() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

std::uint64_t epoch() {
  static const std::uint64_t e = steady_now();
  return e;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 2;
  while (c < n) c <<= 1;
  return c;
}
}  // namespace

void set_gate(Gate g, bool on) {
  if (on) {
    epoch();  // pin the epoch before the first stamp
    detail::g_gates.fetch_or(g, std::memory_order_relaxed);
  } else {
    detail::g_gates.fetch_and(~std::uint32_t(g), std::memory_order_relaxed);
  }
}

void set_enabled(bool on) { set_gate(kGateTrace, on); }

std::uint64_t now_ns() {
  // The epoch first: a first call must not read the clock before pinning it.
  const std::uint64_t e = epoch();
  return steady_now() - e;
}

const char* ev_name(Ev e) {
  switch (e) {
    case Ev::kNone: return "none";
    case Ev::kTaskSpawn: return "spawn";
    case Ev::kTaskStart: return "task";
    case Ev::kTaskEnd: return "task";
    case Ev::kStealAttempt: return "steal_attempt";
    case Ev::kStealSuccess: return "steal_success";
    case Ev::kIdleBegin: return "idle";
    case Ev::kIdleEnd: return "idle";
    case Ev::kCommAllocated: return "ALLOCATED";
    case Ev::kCommPrescribed: return "PRESCRIBED";
    case Ev::kCommActive: return "ACTIVE";
    case Ev::kCommCompleted: return "COMPLETED";
    case Ev::kCommAvailable: return "AVAILABLE";
    case Ev::kDddfGetIssued: return "dddf_get_issued";
    case Ev::kDddfServed: return "dddf_served";
    case Ev::kDddfData: return "dddf_data";
    case Ev::kCheckRace: return "check_race";
    case Ev::kFaultDrop: return "fault_drop";
    case Ev::kFaultDelay: return "fault_delay";
    case Ev::kFaultDup: return "fault_dup";
    case Ev::kRetry: return "retry";
    case Ev::kRequestTimeout: return "request_timeout";
    case Ev::kWatchdogFired: return "watchdog_fired";
    case Ev::kConnUp: return "conn_up";
    case Ev::kConnDown: return "conn_down";
    case Ev::kConnRefused: return "conn_refused";
    case Ev::kPeerDead: return "peer_dead";
    case Ev::kNetBackpressure: return "net_backpressure";
  }
  return "?";
}

namespace {
thread_local Ring* t_ring = nullptr;
}  // namespace

Ring* thread_ring() { return t_ring; }
void set_thread_ring(Ring* r) { t_ring = r; }

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

Ring::Ring(std::size_t capacity_pow2)
    : mask_(round_up_pow2(capacity_pow2 == 0 ? kDefaultRingCapacity
                                             : capacity_pow2) -
            1),
      slots_(new Slot[mask_ + 1]) {}

void Ring::emit(Ev kind, std::uint64_t ts_ns, std::uint32_t a,
                std::uint64_t b) {
  std::uint64_t h = head_.load(std::memory_order_relaxed);
  if (h > mask_) {
    // Full ring: this append overwrites the oldest unexported event. Count
    // it process-wide so truncated traces are detectable from --metrics.
    static auto& dropped =
        MetricsRegistry::global().counter("trace.dropped");
    dropped.add();
  }
  // Claim event h before touching its slot; the release fence orders the
  // claim ahead of the slot stores, so any reader that observes a partially
  // overwritten slot also observes the claim and discards the slot.
  claim_.store(h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Slot& s = slots_[h & mask_];
  s.ts.store(ts_ns, std::memory_order_relaxed);
  s.kind_a.store(std::uint64_t(kind) << 32 | a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_release);
}

std::vector<Event> Ring::snapshot() const {
  const std::size_t cap = mask_ + 1;
  std::uint64_t h0 = head_.load(std::memory_order_acquire);
  std::uint64_t lo = h0 > cap ? h0 - cap : 0;
  std::vector<Event> out;
  out.reserve(std::size_t(h0 - lo));
  std::vector<std::uint64_t> idx;
  idx.reserve(std::size_t(h0 - lo));
  for (std::uint64_t i = lo; i < h0; ++i) {
    const Slot& s = slots_[i & mask_];
    Event e;
    e.ts_ns = s.ts.load(std::memory_order_relaxed);
    std::uint64_t ka = s.kind_a.load(std::memory_order_relaxed);
    e.kind = Ev(ka >> 32);
    e.a = std::uint32_t(ka);
    e.b = s.b.load(std::memory_order_relaxed);
    out.push_back(e);
    idx.push_back(i);
  }
  // Validate against the claim cursor: slot i was possibly overwritten
  // mid-copy iff the producer has started event i+cap (claim > i+cap). The
  // acquire fence pairs with emit()'s release fence, so seeing any byte of
  // an in-progress overwrite implies seeing its claim.
  std::atomic_thread_fence(std::memory_order_acquire);
  std::uint64_t c = claim_.load(std::memory_order_relaxed);
  std::size_t keep_from = 0;
  while (keep_from < idx.size() && c - idx[keep_from] > cap) ++keep_from;
  if (keep_from > 0) out.erase(out.begin(), out.begin() + long(keep_from));
  return out;
}

std::uint64_t Ring::dropped() const {
  std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::size_t cap = mask_ + 1;
  return h > cap ? h - cap : 0;
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

Collector& Collector::global() {
  static Collector c;
  return c;
}

void Collector::add_track(Track t) {
  std::lock_guard<std::mutex> lk(mu_);
  tracks_.push_back(std::move(t));
}

std::vector<Track> Collector::tracks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tracks_;
}

void Collector::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  tracks_.clear();
}

std::size_t Collector::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tracks_.size();
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

// Chrome trace timestamps are microseconds; keep ns precision as a decimal.
double us(std::uint64_t ns) { return double(ns) / 1e3; }

struct CommKey {
  // slot id in the high word, generation below: one id per task *incarnation*.
  static std::uint64_t make(std::uint32_t slot, std::uint64_t gen) {
    return std::uint64_t(slot) << 40 | (gen & ((1ull << 40) - 1));
  }
};

bool is_comm(Ev k) {
  return k >= Ev::kCommAllocated && k <= Ev::kCommAvailable;
}

}  // namespace

std::string chrome_trace_json() {
  std::vector<Track> tracks = Collector::global().tracks();
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: name each rank (pid) and worker (tid).
  std::map<int, bool> pids;
  for (const Track& t : tracks) {
    if (!pids.count(t.pid)) {
      pids[t.pid] = true;
      sep();
      append(out,
             "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,"
             "\"args\":{\"name\":\"rank %d\"}}",
             t.pid, t.pid);
    }
    sep();
    append(out,
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
           "\"args\":{\"name\":\"%s\"}}",
           t.pid, t.tid, t.name.c_str());
    if (t.dropped > 0) {
      // Truncation marker: this ring wrapped and overwrote `dropped` events
      // before the flush — the track's earliest events are missing.
      sep();
      append(out,
             "{\"ph\":\"M\",\"name\":\"trace_ring_dropped\",\"pid\":%d,"
             "\"tid\":%d,\"args\":{\"dropped\":%" PRIu64 "}}",
             t.pid, t.tid, t.dropped);
    }
  }

  // Per-track duration/instant events. B/E pairs nest naturally (help-first
  // waiting executes tasks inside tasks); depth tracking drops E events whose
  // B was overwritten by the ring and closes spans left open at flush.
  for (const Track& t : tracks) {
    int task_depth = 0;
    int idle_depth = 0;
    std::uint64_t last_ts = 0;
    for (const Event& e : t.events) {
      last_ts = std::max(last_ts, e.ts_ns);
      switch (e.kind) {
        case Ev::kTaskStart:
        case Ev::kIdleBegin: {
          int& d = e.kind == Ev::kTaskStart ? task_depth : idle_depth;
          ++d;
          sep();
          append(out,
                 "{\"ph\":\"B\",\"name\":\"%s\",\"cat\":\"worker\","
                 "\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                 ev_name(e.kind), t.pid, t.tid, us(e.ts_ns));
          break;
        }
        case Ev::kTaskEnd:
        case Ev::kIdleEnd: {
          int& d = e.kind == Ev::kTaskEnd ? task_depth : idle_depth;
          if (d == 0) break;  // begin was dropped by the ring
          --d;
          sep();
          append(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                 t.pid, t.tid, us(e.ts_ns));
          break;
        }
        case Ev::kTaskSpawn:
        case Ev::kStealAttempt:
        case Ev::kStealSuccess:
        case Ev::kDddfGetIssued:
        case Ev::kDddfServed:
        case Ev::kDddfData:
        case Ev::kCheckRace:
        case Ev::kFaultDrop:
        case Ev::kFaultDelay:
        case Ev::kFaultDup:
        case Ev::kRetry:
        case Ev::kRequestTimeout:
        case Ev::kWatchdogFired:
        case Ev::kConnUp:
        case Ev::kConnDown:
        case Ev::kConnRefused:
        case Ev::kPeerDead:
        case Ev::kNetBackpressure:
          sep();
          append(out,
                 "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"worker\",\"s\":\"t\","
                 "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                 "\"args\":{\"a\":%u,\"b\":%" PRIu64 "}}",
                 ev_name(e.kind), t.pid, t.tid, us(e.ts_ns), e.a, e.b);
          break;
        default:
          break;  // comm lifecycle handled below, per pid
      }
    }
    for (; task_depth > 0; --task_depth) {
      sep();
      append(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}", t.pid,
             t.tid, us(last_ts));
    }
    for (; idle_depth > 0; --idle_depth) {
      sep();
      append(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}", t.pid,
             t.tid, us(last_ts));
    }
  }

  // Comm-task lifecycle: async spans keyed by (slot, generation). Events for
  // one task come from two rings (the submitting worker records ALLOCATED /
  // PRESCRIBED, the communication worker the rest), so merge per pid and
  // sort by timestamp before pairing state entries/exits.
  struct CommEv {
    Event e;
    int tid;
  };
  std::map<int, std::vector<CommEv>> by_pid;
  for (const Track& t : tracks) {
    for (const Event& e : t.events) {
      if (is_comm(e.kind)) by_pid[t.pid].push_back({e, t.tid});
    }
  }
  for (auto& [pid, evs] : by_pid) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const CommEv& x, const CommEv& y) {
                       return x.e.ts_ns < y.e.ts_ns;
                     });
    // id -> (open state, open ts) for the current span of each incarnation.
    std::unordered_map<std::uint64_t, Ev> open;
    for (const CommEv& ce : evs) {
      std::uint64_t id = CommKey::make(ce.e.a, ce.e.b);
      auto it = open.find(id);
      if (it != open.end()) {
        sep();
        append(out,
               "{\"ph\":\"e\",\"cat\":\"comm_task\",\"id\":\"0x%" PRIx64
               "\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
               id, ev_name(it->second), pid, ce.tid, us(ce.e.ts_ns));
        open.erase(it);
      }
      if (ce.e.kind != Ev::kCommAvailable) {
        open.emplace(id, ce.e.kind);
        sep();
        append(out,
               "{\"ph\":\"b\",\"cat\":\"comm_task\",\"id\":\"0x%" PRIx64
               "\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
               "\"args\":{\"slot\":%u,\"gen\":%" PRIu64 "}}",
               id, ev_name(ce.e.kind), pid, ce.tid, us(ce.e.ts_ns), ce.e.a,
               ce.e.b);
      }
    }
    // Close spans still open at flush (tasks in flight at teardown).
    for (const auto& [id, st] : open) {
      sep();
      append(out,
             "{\"ph\":\"e\",\"cat\":\"comm_task\",\"id\":\"0x%" PRIx64
             "\",\"name\":\"%s\",\"pid\":%d,\"tid\":0,\"ts\":%.3f}",
             id, ev_name(st), pid,
             evs.empty() ? 0.0 : us(evs.back().e.ts_ns));
    }
  }

  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = n == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace support::trace
