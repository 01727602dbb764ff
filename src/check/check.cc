#include "check/check.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "core/task.h"
#include "prof/prof.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace hc::check {

namespace {
std::string race_message(const RaceWitness& w) {
  auto kind = [](bool write) { return write ? "write" : "read"; };
  return "hc-check: determinacy race on [" + std::to_string(w.addr) + ", +" +
         std::to_string(w.size) + "): " + kind(w.first_write) + " by task #" +
         std::to_string(w.first_task) + " and " + kind(w.second_write) +
         " by task #" + std::to_string(w.second_task) +
         " with no happens-before edge (no async/finish/DDF/phaser chain "
         "orders them)";
}
}  // namespace

DeterminacyRace::DeterminacyRace(const RaceWitness& w)
    : CheckError(race_message(w)), witness_(w) {}

#if HCMPI_CHECK

namespace {

// Sparse vector clock over *observed* strands (strands that annotated at
// least one access). Strands that never touch shadow memory have no
// component anywhere, which keeps un-annotated programs near-free to check.
using VC = std::unordered_map<std::uint32_t, std::uint64_t>;

void vc_join(VC& into, const VC& from) {
  for (const auto& [s, e] : from) {
    auto& slot = into[s];
    if (e > slot) slot = e;
  }
}

struct Strand {
  VC clock;
  bool observed = false;  // has annotated an access; owns a component
};

struct Access {
  std::uint32_t strand = 0;
  std::uint64_t epoch = 0;
};

// Shadow cell for one annotated range, keyed by its start address.
struct Cell {
  std::size_t size = 0;
  Access write;                // last un-ordered write (strand 0 = none)
  std::vector<Access> reads;   // reads since that write
};

struct Checker {
  std::mutex mu;
  std::uint64_t generation = 1;  // bumped by reset(); invalidates tl strands

  std::unordered_map<std::uint32_t, Strand> strands;
  std::uint32_t next_strand = 1;

  // Per-scope join clocks plus the closed set for escape detection. A scope
  // address leaves `closed` when a new scope is constructed over it.
  std::unordered_map<const void*, VC> finish_join;
  std::unordered_set<const void*> closed_scopes;

  std::unordered_map<const void*, VC> ddf_put;      // putter clock per DDF
  std::unordered_map<const void*, VC> phaser_sig;   // cumulative signal clock
  std::unordered_map<const void*, VC> comm_submit;  // submitter clock per task

  std::map<std::uintptr_t, Cell> shadow;

  std::uint64_t races = 0;
  std::uint64_t edges = 0;
  std::uint64_t strands_made = 0;
};

Checker& C() {
  static Checker* c = new Checker;  // leaked: hooks run during teardown
  return *c;
}

std::atomic<bool> g_enabled{true};

struct TlStrand {
  std::uint32_t id = 0;
  std::uint64_t generation = 0;
};
thread_local TlStrand tl_strand;
thread_local bool tl_comm_worker = false;

// Current strand under C().mu; creates a root strand for fresh threads.
std::uint32_t cur_locked(Checker& c) {
  if (tl_strand.id == 0 || tl_strand.generation != c.generation) {
    tl_strand.id = c.next_strand++;
    tl_strand.generation = c.generation;
    c.strands.emplace(tl_strand.id, Strand{});
    ++c.strands_made;
  }
  return tl_strand.id;
}

Strand& strand_locked(Checker& c, std::uint32_t id) {
  return c.strands.try_emplace(id).first->second;
}

// A release operation by `id`: bump its component so later accesses are
// distinguishable from those a consumer already acquired. Only observed
// strands own a component (see header).
void bump_epoch(Strand& s, std::uint32_t id) {
  if (s.observed) ++s.clock[id];
}

// Did access (strand, epoch) happen before the strand whose clock is `vc`?
bool ordered_before(const VC& vc, const Access& a) {
  auto it = vc.find(a.strand);
  return it != vc.end() && it->second >= a.epoch;
}

void report_race(Checker& c, std::uintptr_t addr, std::size_t size,
                 const Access& prior, bool prior_write, std::uint32_t cur,
                 bool cur_write) {
  ++c.races;
  support::MetricsRegistry::global().counter("check.races_flagged").add(1);
  prof::Probe().instant(support::trace::Ev::kCheckRace, prior.strand,
                        std::uint64_t(addr));
  RaceWitness w;
  w.addr = addr;
  w.size = size;
  w.first_task = prior.strand;
  w.second_task = cur;
  w.first_write = prior_write;
  w.second_write = cur_write;
  throw DeterminacyRace(w);
}

void check_access(Checker& c, const void* addr, std::size_t size,
                  bool is_write) {
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  if (!s.observed) {
    s.observed = true;
    s.clock[id] = 1;  // materialize the component lazily
  }
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
  std::uintptr_t end = a + size;
  Access me{id, s.clock[id]};

  // Visit every cell overlapping [a, end): the exact-match cell is updated
  // in place; other overlaps are conflict-checked only.
  auto it = c.shadow.lower_bound(a);
  if (it != c.shadow.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size > a) it = prev;
  }
  bool updated = false;
  for (; it != c.shadow.end() && it->first < end; ++it) {
    Cell& cell = it->second;
    if (it->first + cell.size <= a) continue;
    if (cell.write.strand != 0 && cell.write.strand != id &&
        !ordered_before(s.clock, cell.write)) {
      report_race(c, it->first, cell.size, cell.write, true, id, is_write);
    }
    if (is_write) {
      for (const Access& r : cell.reads) {
        if (r.strand != id && !ordered_before(s.clock, r)) {
          report_race(c, it->first, cell.size, r, false, id, true);
        }
      }
    }
    if (it->first == a && cell.size == size) {
      if (is_write) {
        cell.write = me;
        cell.reads.clear();
      } else {
        // Keep the read set small: drop reads already ordered before us.
        std::erase_if(cell.reads, [&](const Access& r) {
          return r.strand == id || ordered_before(s.clock, r);
        });
        cell.reads.push_back(me);
      }
      updated = true;
    }
  }
  if (!updated) {
    Cell cell;
    cell.size = size;
    if (is_write) {
      cell.write = me;
    } else {
      cell.reads.push_back(me);
    }
    c.shadow.emplace(a, std::move(cell));
  }
}

}  // namespace

// --- control ---------------------------------------------------------------

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  ++c.generation;
  c.strands.clear();
  c.next_strand = 1;
  c.finish_join.clear();
  c.closed_scopes.clear();
  c.ddf_put.clear();
  c.phaser_sig.clear();
  c.comm_submit.clear();
  c.shadow.clear();
  c.races = 0;
  c.edges = 0;
  c.strands_made = 0;
}

std::uint64_t races_detected() {
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.races;
}

std::uint64_t edges_recorded() {
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.edges;
}

std::uint64_t strands_created() {
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.strands_made;
}

std::uint32_t current_strand() {
  if (!enabled()) return 0;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  return cur_locked(c);
}

// --- finish scopes ---------------------------------------------------------

void on_finish_begin(const hc::FinishScope* scope) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  c.closed_scopes.erase(scope);  // a reused stack address is a fresh scope
  c.finish_join.try_emplace(scope);
}

void on_scope_inc(const hc::FinishScope* scope) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  if (c.closed_scopes.count(scope) != 0) throw FinishEscape();
}

void on_scope_release(const hc::FinishScope* scope) {
  if (!enabled() || scope == nullptr) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  vc_join(c.finish_join[scope], s.clock);
  ++c.edges;
}

void on_finish_join(const hc::FinishScope* scope) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  auto it = c.finish_join.find(scope);
  if (it != c.finish_join.end()) {
    vc_join(s.clock, it->second);
    c.finish_join.erase(it);
    ++c.edges;
  }
  c.closed_scopes.insert(scope);
}

// --- tasks -----------------------------------------------------------------

std::uint32_t on_spawn() {
  if (!enabled()) return 0;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t parent = cur_locked(c);
  Strand& p = strand_locked(c, parent);
  std::uint32_t child = c.next_strand++;
  ++c.strands_made;
  Strand& ch = c.strands.emplace(child, Strand{}).first->second;
  ch.clock = p.clock;  // spawn edge: parent's history flows to the child
  bump_epoch(p, parent);
  ++c.edges;
  return child;
}

std::uint32_t on_task_begin(std::uint32_t strand) {
  if (!enabled()) return 0;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t prev = cur_locked(c);
  if (strand == 0 || c.strands.count(strand) == 0) {
    // Root task (launch) or a strand from before a reset: fresh strand that
    // inherits the launching thread's history.
    strand = c.next_strand++;
    ++c.strands_made;
    c.strands.emplace(strand, Strand{}).first->second.clock =
        strand_locked(c, prev).clock;
  }
  tl_strand.id = strand;
  tl_strand.generation = c.generation;
  return prev;
}

void on_task_end(const hc::FinishScope* scope, std::uint32_t prev) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  if (scope != nullptr) {
    std::uint32_t id = cur_locked(c);
    vc_join(c.finish_join[scope], strand_locked(c, id).clock);
    ++c.edges;
  }
  tl_strand.id = prev;
  tl_strand.generation = c.generation;
}

// --- DDFs ------------------------------------------------------------------

void on_ddf_put(const hc::DdfBase* ddf) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  vc_join(c.ddf_put[ddf], s.clock);
  bump_epoch(s, id);
  ++c.edges;
}

void on_ddf_get(const hc::DdfBase* ddf) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  auto it = c.ddf_put.find(ddf);
  if (it != c.ddf_put.end()) {
    vc_join(strand_locked(c, id).clock, it->second);
    ++c.edges;
  }
}

void on_await_release(hc::Task* task, std::span<hc::DdfBase* const> deps) {
  if (!enabled() || task == nullptr) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  if (task->check_strand == 0 || c.strands.count(task->check_strand) == 0) {
    return;  // spawned before a reset; a fresh strand forms at task begin
  }
  Strand& t = strand_locked(c, task->check_strand);
  for (const hc::DdfBase* d : deps) {
    auto it = c.ddf_put.find(d);
    if (it != c.ddf_put.end()) {
      vc_join(t.clock, it->second);
      ++c.edges;
    }
  }
}

void on_ddf_destroy(const hc::DdfBase* ddf) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  c.ddf_put.erase(ddf);
}

// --- phasers ---------------------------------------------------------------

void on_phaser_signal(const void* phaser, std::uint64_t /*phase*/) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  // Cumulative clock: a signal-only strand running ahead contributes early,
  // which can only add edges (missed races, never false positives).
  vc_join(c.phaser_sig[phaser], s.clock);
  bump_epoch(s, id);
  ++c.edges;
}

void on_phaser_wait(const void* phaser, std::uint64_t /*phase*/) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  auto it = c.phaser_sig.find(phaser);
  if (it != c.phaser_sig.end()) {
    vc_join(strand_locked(c, id).clock, it->second);
    ++c.edges;
  }
}

void on_phaser_destroy(const void* phaser) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  c.phaser_sig.erase(phaser);
}

// --- communication tasks ---------------------------------------------------

void on_comm_submit(const void* task) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  Strand& s = strand_locked(c, id);
  VC& slot = c.comm_submit[task];
  slot.clear();
  slot = s.clock;
  bump_epoch(s, id);
  ++c.edges;
}

void on_comm_receive(const void* task) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  std::uint32_t id = cur_locked(c);
  auto it = c.comm_submit.find(task);
  if (it != c.comm_submit.end()) {
    vc_join(strand_locked(c, id).clock, it->second);
    c.comm_submit.erase(it);
    ++c.edges;
  }
}

// --- misuse ----------------------------------------------------------------

void enter_comm_worker() { tl_comm_worker = true; }

void on_blocking_call(const char* what) {
  if (!enabled()) return;
  if (tl_comm_worker) {
    support::MetricsRegistry::global()
        .counter("check.misuse_flagged")
        .add(1);
    throw CommWorkerBlockingCall(what);
  }
}

// --- annotation ------------------------------------------------------------

void annotate_read(const void* addr, std::size_t size) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  check_access(c, addr, size, /*is_write=*/false);
}

void annotate_write(const void* addr, std::size_t size) {
  if (!enabled()) return;
  Checker& c = C();
  std::lock_guard<std::mutex> lk(c.mu);
  check_access(c, addr, size, /*is_write=*/true);
}

#endif  // HCMPI_CHECK

}  // namespace hc::check
