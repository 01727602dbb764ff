#include "smpi/endpoint.h"

#include <algorithm>
#include <cstring>

#include "prof/prof.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace smpi {

namespace {
// Cached registry entries: the per-message cost while telemetry is on is
// a lock-free histogram add, not a name lookup under the registry lock.
// Both are recorded after the endpoint lock is released.
support::MetricsRegistry::Histogram& inject_to_delivery_hist() {
  static auto& h = support::MetricsRegistry::global().histogram(
      "smpi.injection_to_delivery_ns");
  return h;
}
support::MetricsRegistry::Histogram& inject_to_completion_hist() {
  static auto& h = support::MetricsRegistry::global().histogram(
      "smpi.injection_to_completion_ns");
  return h;
}
support::MetricsRegistry::Counter& delivered_counter() {
  static auto& c =
      support::MetricsRegistry::global().counter("smpi.messages_delivered");
  return c;
}
}  // namespace

Payload& Payload::operator=(Payload&& o) noexcept {
  if (this != &o) {
    size_ = std::exchange(o.size_, 0);
    heap_ = std::move(o.heap_);
    if (!heap_ && size_ > 0) std::memcpy(inline_, o.inline_, size_);
  }
  return *this;
}

void Payload::assign(const void* src, std::size_t n) {
  size_ = n;
  std::uint8_t* dst = inline_;
  if (n > kInlineBytes) {
    heap_ = std::make_unique_for_overwrite<std::uint8_t[]>(n);
    dst = heap_.get();
  } else {
    heap_.reset();
  }
  if (n > 0) std::memcpy(dst, src, n);
}

void RequestState::unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) owner->recycle(this);
}

Endpoint::~Endpoint() {
  posted_.clear();  // returns the states of never-matched receives
  while (free_ != nullptr) {
    RequestState* next = free_->next_free_;
    delete free_;
    free_ = next;
  }
}

RequestState* Endpoint::take_state(std::unique_lock<support::SpinLock>& lk) {
  if (RequestState* r = free_) {
    free_ = r->next_free_;
    return r;
  }
  lk.unlock();
  auto* r = new RequestState;
  r->owner = this;
  lk.lock();
  return r;
}

void Endpoint::recycle(RequestState* r) {
  std::lock_guard<support::SpinLock> lk(mu_);
  r->next_free_ = free_;
  free_ = r;
}

support::EventCount::Key Endpoint::prepare_wait() {
  const support::EventCount::Key key = doorbell_.prepare();
  std::lock_guard<support::SpinLock> lk(mu_);
  return key;
}

template <typename Ready>
void Endpoint::wait_until(Ready ready) {
  support::SpinWindow window;
  while (!ready()) {
    if (!window.idle()) continue;
    const support::EventCount::Key key = prepare_wait();
    if (ready()) {
      doorbell_.cancel();
      return;
    }
    doorbell_.commit(key);
  }
}

void Endpoint::complete_recv_locked(RequestState& r, const Envelope& env) {
  std::size_t n = env.payload.size();
  r.status.source = env.source;
  r.status.tag = env.tag;
  r.status.count_bytes = std::min(n, r.recv_cap);
  r.status.error = n > r.recv_cap ? ErrorCode::kTruncate : ErrorCode::kOk;
  if (r.status.count_bytes > 0 && r.recv_buf != nullptr) {
    std::memcpy(r.recv_buf, env.payload.data(), r.status.count_bytes);
  }
  r.state.store(ReqState::kComplete, std::memory_order_release);
}

void Endpoint::deliver(Envelope&& env) {
  const std::uint64_t ts = env.ts_inject;
  Request matched;  // dropped after the lock: a last unref recycles under it
  {
    std::lock_guard<support::SpinLock> lk(mu_);
    for (std::size_t i = 0; i < posted_.size(); ++i) {
      if (matches(*posted_[i], env)) {
        matched = posted_.take(i);
        complete_recv_locked(*matched, env);
        break;
      }
    }
    if (!matched) {
      unexpected_.push_back(std::move(env));
      unexpected_hw_ =
          std::max(unexpected_hw_, std::uint64_t(unexpected_.size()));
    }
  }
  doorbell_.notify();  // a completed wait, or an arrival for a blocking probe
  // Telemetry counts every delivery; an injection stamp (0 when the sender
  // had telemetry off, or sits in another process) adds its latencies, both
  // ending at one clock reading.
  prof::Probe p;
  if (p.telemetry()) [[unlikely]] {
    delivered_counter().add();
    if (ts != 0) {
      const std::uint64_t now = p.stamp();
      p.sample(inject_to_delivery_hist(), ts, now);
      if (matched) p.sample(inject_to_completion_hist(), ts, now);
    }
  }
}

Request Endpoint::post_recv(void* buf, std::size_t cap, int source, int tag,
                            std::uint32_t context) {
  Envelope env;  // a matched unexpected message; freed after the lock
  bool matched = false;
  Request req;
  {
    std::unique_lock<support::SpinLock> lk(mu_);
    RequestState* r = take_state(lk);
    r->kind = ReqKind::kRecv;
    r->status = Status{};
    r->recv_buf = buf;
    r->recv_cap = cap;
    r->match_source = source;
    r->match_tag = tag;
    r->context = context;
    r->state.store(ReqState::kPending, std::memory_order_relaxed);
    req = Request(r);
    for (std::size_t i = 0; i < unexpected_.size(); ++i) {
      if (matches(*r, unexpected_[i])) {
        env = unexpected_.take(i);
        complete_recv_locked(*r, env);
        matched = true;
        break;
      }
    }
    if (!matched) posted_.push_back(Request(req));
  }
  if (matched) {
    prof::Probe p;
    if (p.telemetry()) [[unlikely]] {
      p.sample(inject_to_completion_hist(), env.ts_inject, p.stamp());
    }
  }
  return req;
}

Request Endpoint::completed_send(const Status& st) {
  RequestState* r;
  {
    std::unique_lock<support::SpinLock> lk(mu_);
    r = take_state(lk);
  }
  r->kind = ReqKind::kSend;
  r->status = st;
  r->recv_buf = nullptr;
  r->recv_cap = 0;
  r->state.store(ReqState::kComplete, std::memory_order_release);
  return Request(r);
}

bool Endpoint::cancel_recv(const Request& req) {
  Request cancelled;  // posted_'s reference, dropped after the lock
  {
    std::lock_guard<support::SpinLock> lk(mu_);
    for (std::size_t i = 0; i < posted_.size(); ++i) {
      if (posted_[i] == req) {
        cancelled = posted_.take(i);
        break;
      }
    }
    if (!cancelled) return false;
    req->status.cancelled = true;
    req->status.error = ErrorCode::kCancelled;
    req->state.store(ReqState::kCancelled, std::memory_order_release);
  }
  doorbell_.notify();
  return true;
}

bool Endpoint::probe_locked(int source, int tag, std::uint32_t context,
                            Status* st) {
  for (std::size_t i = 0; i < unexpected_.size(); ++i) {
    const Envelope& e = unexpected_[i];
    bool ok = e.context == context &&
              (source == kAnySource || source == e.source) &&
              (tag == kAnyTag || tag == e.tag);
    if (ok) {
      if (st != nullptr) {
        st->source = e.source;
        st->tag = e.tag;
        st->count_bytes = e.payload.size();
        st->error = ErrorCode::kOk;
      }
      return true;
    }
  }
  return false;
}

bool Endpoint::iprobe(int source, int tag, std::uint32_t context, Status* st) {
  std::lock_guard<support::SpinLock> lk(mu_);
  return probe_locked(source, tag, context, st);
}

void Endpoint::probe(int source, int tag, std::uint32_t context, Status* st) {
  wait_until([&] { return iprobe(source, tag, context, st); });
}

void Endpoint::wait_request(const Request& req) {
  wait_until([&] { return req->done(); });
}

int Endpoint::wait_any(const std::vector<Request>& reqs) {
  int found = -1;
  wait_until([&] {
    bool active = false;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i]) continue;
      active = true;
      if (reqs[i]->done()) {
        found = int(i);
        return true;
      }
    }
    return !active;  // MPI_Waitany on no active request: MPI_UNDEFINED
  });
  return found;
}

}  // namespace smpi
