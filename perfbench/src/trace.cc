// The traced pass's span recorder: per-thread buffers kept in memory and
// written out as Chrome-trace JSON when the benchmark ends. Every span's
// duration is also kept as a sample, so the per-layer percentiles use all
// spans even when the stored span list is capped.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace pb::trace {

namespace {

// Spans kept per thread for the Chrome trace; samples are never capped.
constexpr std::size_t kMaxSpansPerThread = 25000;

struct SpanRec {
  std::uint64_t start, end, id, parent, op;
  Kind kind;
};

struct ThreadBuf {
  int tid = 0;
  std::uint64_t next_id = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> stack;  // open spans on this thread
  std::vector<SpanRec> spans;
  std::vector<float> samples[kKinds];
};

bool g_enabled = false;
std::atomic<std::uint64_t> g_spawned{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu
thread_local ThreadBuf* tl_buf = nullptr;

ThreadBuf& buf() {
  if (tl_buf == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    tl_buf = g_bufs.back().get();
    tl_buf->tid = int(g_bufs.size());
  }
  return *tl_buf;
}

std::uint64_t open_span(ThreadBuf& b, std::uint64_t* parent) {
  *parent = b.stack.empty() ? 0 : b.stack.back();
  std::uint64_t id = (std::uint64_t(b.tid) << 40) | ++b.next_id;
  b.stack.push_back(id);
  return id;
}

void close_span(ThreadBuf& b, Kind k, std::uint64_t start, std::uint64_t end,
                std::uint64_t id, std::uint64_t parent, std::uint64_t op) {
  b.samples[k].push_back(float(end - start));
  if (b.spans.size() < kMaxSpansPerThread) {
    b.spans.push_back(SpanRec{start, end, id, parent, op, k});
  } else {
    ++b.dropped;
  }
}

}  // namespace

const char* name(Kind k) {
  static const char* const kNames[kKinds] = {
      "core.task",         "hcmpi.isend",      "hcmpi.irecv",
      "hcmpi.send",        "hcmpi.recv",       "hcmpi.allreduce",
      "hcmpi.accum_next",  "hcmpi.steal_serve", "apps.uts_seq",
      "apps.compute_tile", "dddf.put",         "dddf.finalize",
      "core.spawn_to_start", "hcmpi.request", "core.busy"};
  return kNames[k];
}

void enable(bool on) { g_enabled = on; }
bool enabled() { return g_enabled; }
void set_timed(bool on) {
  g_active.store(on && g_enabled, std::memory_order_relaxed);
}

void span(Kind k, std::uint64_t start, std::uint64_t end, std::uint64_t op) {
  if (!active()) return;
  ThreadBuf& b = buf();
  std::uint64_t parent = 0;
  std::uint64_t id = open_span(b, &parent);
  b.stack.pop_back();
  close_span(b, k, start, end, id, parent, op);
}

void sample(Kind k, double value_ns) {
  if (!active()) return;
  buf().samples[k].push_back(float(value_ns));
}

void count_spawn() { g_spawned.fetch_add(1, std::memory_order_relaxed); }
std::uint64_t spawned() { return g_spawned.load(std::memory_order_relaxed); }

Scope::Scope(Kind k, std::uint64_t op) : on_(active()), k_(k), op_(op) {
  if (!on_) return;
  id_ = open_span(buf(), &parent_);
  start_ = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  std::uint64_t end = now_ns();
  ThreadBuf& b = buf();
  b.stack.pop_back();
  close_span(b, k_, start_, end, id_, parent_, op_);
}

std::vector<double> samples(Kind k) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<double> out;
  for (const auto& b : g_bufs) {
    out.insert(out.end(), b->samples[k].begin(), b->samples[k].end());
  }
  return out;
}

bool write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  std::uint64_t t0 = ~0ull;
  std::uint64_t dropped = 0;
  for (const auto& b : g_bufs) {
    for (const SpanRec& s : b->spans) t0 = std::min(t0, s.start);
    dropped += b->dropped;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                  "\"spans_not_kept\":%llu},\"traceEvents\":[",
               (unsigned long long)dropped);
  bool first = true;
  for (const auto& b : g_bufs) {
    for (const SpanRec& s : b->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                   "\"parent\":%llu,\"op\":%llu}}",
                   first ? "" : ",", name(s.kind), b->tid,
                   double(s.start - t0) / 1e3, double(s.end - s.start) / 1e3,
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   (unsigned long long)s.op);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb::trace
