#include "dddf/space.h"

#include <stdexcept>

#include "check/check.h"
#include "core/runtime.h"
#include "dddf/mpi_transport.h"
#include "fault/fault.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace dddf {

namespace {
// DDDF protocol events land on the ring of whatever worker slot runs the
// handler: the hcmpi communication worker (progress context) or a
// computation worker issuing the first remote fetch.
void record_event(support::trace::Ev ev, Guid guid, std::uint64_t bytes) {
  if (!support::trace::enabled()) return;
  hc::Worker* w = hc::Runtime::current_worker();
  if (w != nullptr) {
    w->trace_ring().record(ev, std::uint32_t(guid), bytes);
  }
}
}  // namespace

Space::Space(hcmpi::Context& ctx, SpaceConfig cfg)
    : Space(std::make_unique<MpiTransport>(ctx), std::move(cfg)) {}

Space::Space(std::unique_ptr<Transport> transport, SpaceConfig cfg)
    : transport_(std::move(transport)), cfg_(std::move(cfg)) {
  transport_->bind(
      [this](Guid g, int requester) { on_register(g, requester); },
      [this](Guid g, Bytes payload) { on_data(g, std::move(payload)); });
  // Contribute protocol state to the stall watchdog's dump: which side of
  // the REGISTER/DATA handshake this rank is stuck on is usually the whole
  // diagnosis. Reads only atomics — safe from the watchdog's thread.
  diag_id_ = fault::register_diagnostic(
      "dddf.space", [this](std::FILE* f) {
        std::uint64_t entries;
        {
          std::lock_guard<std::mutex> lk(mu_);
          entries = entries_.size();
        }
        std::fprintf(
            f,
            "  dddf.space rank=%d entries=%llu pending_guids=%llu "
            "served_pairs=%llu gets_issued=%llu finalized=%d\n",
            rank(), (unsigned long long)entries,
            (unsigned long long)pending_guids_.load(std::memory_order_relaxed),
            (unsigned long long)served_pairs_.load(std::memory_order_relaxed),
            (unsigned long long)gets_issued_.load(std::memory_order_relaxed),
            int(finalized_.load(std::memory_order_relaxed)));
      });
}

Space::~Space() {
  fault::unregister_diagnostic(diag_id_);
  // Fold this rank's protocol counters into the process-wide registry
  // before the transport (and its progress context) goes away.
  auto& reg = support::MetricsRegistry::global();
  reg.counter("dddf.remote_gets_issued").add(remote_gets_issued());
  reg.counter("dddf.registrations_received").add(registrations_received());
  reg.counter("dddf.data_messages_sent").add(data_messages_sent());
  // Stop the transport's progress engine *before* the implicit member
  // destruction reaches the protocol tables it dispatches into: a queued
  // put-flush closure or a late REGISTER must drain while
  // `pending_`/`served_`/`entries_` are still alive.
  transport_.reset();
}

Space::Entry* Space::ensure(Guid guid) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(guid);
  if (it != entries_.end()) return it->second.get();
  auto entry = std::make_unique<Entry>();
  Entry* out = entry.get();
  entries_.emplace(guid, std::move(entry));
  return out;
}

hc::DdfBase* Space::handle(Guid guid) { return &ensure(guid)->ddf; }

hc::DdfBase* Space::request(Guid guid) {
  Entry* e = ensure(guid);
  int home = cfg_.home(guid);
  if (home != rank() &&
      !e->fetch_requested.exchange(true, std::memory_order_acq_rel)) {
    if (hc::check::enabled() &&
        finalized_.load(std::memory_order_acquire)) {
      throw hc::check::CheckError(
          "hc-check: new remote DDDF await after Space::finalize() — the "
          "termination detector has already declared quiescence");
    }
    // First consumer on this rank: register intent with the home rank
    // (paper: "the runtime sends the home location a message to register
    // its intent on receiving the put data").
    gets_issued_.fetch_add(1, std::memory_order_relaxed);
    record_event(support::trace::Ev::kDddfGetIssued, guid, 0);
    transport_->send_register(guid, home);
  }
  return &e->ddf;
}

void Space::put(Guid guid, Bytes data) {
  if (!is_home(guid)) {
    throw std::logic_error("dddf: DDF_PUT must run on the guid's home rank");
  }
  if (hc::check::enabled() && finalized_.load(std::memory_order_acquire)) {
    throw hc::check::CheckError(
        "hc-check: DDDF put after Space::finalize() — remote consumers can "
        "no longer be served");
  }
  ensure(guid)->ddf.put(std::move(data));  // releases local DDTs
  // Flush registrations that arrived before the put. The flush runs on the
  // progress context, where `pending_`/`served_` live; a registration
  // racing this put is answered directly by on_register (it sees the DDF
  // satisfied), and `served_` keeps the transfer at-most-once either way.
  // Two words of capture keep the closure inside std::function's inline
  // buffer, so queueing it does not allocate.
  transport_->post([this, guid] {
    auto it = pending_.find(guid);
    if (it == pending_.end()) return;
    for (int requester : it->second.requesters) {
      serve(guid, it->second.entry, requester);
    }
    pending_.erase(it);
    pending_guids_.store(pending_.size(), std::memory_order_relaxed);
  });
}

const Bytes& Space::get(Guid guid) { return ensure(guid)->ddf.get(); }

void Space::serve(Guid guid, Entry* e, int requester) {
  if (!served_[guid].insert(requester).second) return;  // at-most-once
  served_pairs_.fetch_add(1, std::memory_order_relaxed);
  record_event(support::trace::Ev::kDddfServed, guid, e->ddf.get().size());
  transport_->send_data(guid, requester, e->ddf.get());
  data_sent_.fetch_add(1, std::memory_order_relaxed);
}

void Space::on_register(Guid guid, int requester) {
  regs_received_.fetch_add(1, std::memory_order_relaxed);
  Entry* e = ensure(guid);
  if (e->ddf.satisfied()) {
    serve(guid, e, requester);  // the "listener task" answering late arrivals
  } else {
    Waiting& w = pending_[guid];
    w.entry = e;
    w.requesters.push_back(requester);
    pending_guids_.store(pending_.size(), std::memory_order_relaxed);
  }
}

void Space::on_data(Guid guid, Bytes payload) {
  ensure(guid)->ddf.put(std::move(payload));  // wakes awaiting DDTs
}

void Space::finalize(std::uint64_t timeout_ms) {
  finalized_.store(true, std::memory_order_release);
  // When every rank has reached finalize, every await was satisfied, hence
  // every registration was served and no protocol message is in flight: a
  // single system-wide barrier *whose progress engine keeps the listener
  // serving* is a sound termination detector (DESIGN.md §5).
  transport_->finalize_barrier(timeout_ms);
}

}  // namespace dddf
