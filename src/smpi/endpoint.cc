#include "smpi/endpoint.h"

#include <algorithm>
#include <cstring>

#include "support/metrics.h"
#include "support/trace.h"

namespace smpi {

namespace {
// Cached registry entries: the per-message cost while telemetry is on is
// one histogram add, not a name lookup under the registry lock.
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

void Endpoint::complete_recv_locked(const Request& req, Envelope& env) {
  RequestState& r = *req;
  if (env.ts_inject != 0) {
    std::uint64_t now = support::trace::now_ns();
    if (now >= env.ts_inject)
      inject_to_completion_hist().add(double(now - env.ts_inject));
  }
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
  std::lock_guard<std::mutex> lk(mu_);
  if (env.ts_inject != 0) {
    delivered_counter().add();
    std::uint64_t now = support::trace::now_ns();
    if (now >= env.ts_inject)
      inject_to_delivery_hist().add(double(now - env.ts_inject));
  }
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(**it, env)) {
      Request req = *it;
      posted_.erase(it);
      complete_recv_locked(req, env);
      cv_.notify_all();
      return;
    }
  }
  unexpected_.push_back(std::move(env));
  unexpected_hw_ = std::max(unexpected_hw_, std::uint64_t(unexpected_.size()));
  cv_.notify_all();  // wake blocking probes
}

void Endpoint::post_recv(const Request& req) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(*req, *it)) {
      Envelope env = std::move(*it);
      unexpected_.erase(it);
      complete_recv_locked(req, env);
      cv_.notify_all();
      return;
    }
  }
  posted_.push_back(req);
}

bool Endpoint::cancel_recv(const Request& req) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find(posted_.begin(), posted_.end(), req);
  if (it == posted_.end()) return false;
  posted_.erase(it);
  req->status.cancelled = true;
  req->status.error = ErrorCode::kCancelled;
  req->state.store(ReqState::kCancelled, std::memory_order_release);
  cv_.notify_all();
  return true;
}

bool Endpoint::iprobe(int source, int tag, std::uint32_t context, Status* st) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Envelope& e : unexpected_) {
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

void Endpoint::probe(int source, int tag, std::uint32_t context, Status* st) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    for (const Envelope& e : unexpected_) {
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
        return;
      }
    }
    cv_.wait(lk);
  }
}

void Endpoint::wait_request(const Request& req) {
  if (req->done()) return;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return req->done(); });
}

std::size_t Endpoint::wait_any(const std::vector<Request>& reqs) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i] && reqs[i]->done()) return i;
    }
    cv_.wait(lk);
  }
}

}  // namespace smpi
