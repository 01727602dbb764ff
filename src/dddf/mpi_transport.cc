#include "dddf/mpi_transport.h"

#include <cstring>

#include "fault/fault.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace dddf {

namespace {
// Tags in the system communicator's point-to-point context. Collectives on
// that communicator run in its private collective context, so these never
// match collective traffic.
constexpr int kTagRegister = 1000;
constexpr int kTagData = 1001;
// Barrier-arrival announcement: lets a deadlined finalize_barrier name the
// ranks that never reached finalize instead of hanging forever.
constexpr int kTagArrive = 1002;

struct RegisterMsg {
  Guid guid;
  int requester;
};
}  // namespace

MpiTransport::MpiTransport(hcmpi::Context& ctx) :
    Transport(ctx.rank(), ctx.size()), ctx_(ctx) {
  arrived_ = std::make_unique<std::atomic<bool>[]>(std::size_t(ctx.size()));
  for (int r = 0; r < ctx.size(); ++r) {
    arrived_[std::size_t(r)].store(false, std::memory_order_relaxed);
  }
  ctx_.set_poller([this](smpi::Comm& comm) { return poll(comm); });
}

MpiTransport::~MpiTransport() {
  // Handshake the poller out of the communication worker before this
  // object's state (and the Space handlers it dispatches into) goes away.
  ctx_.clear_poller();
  auto& reg = support::MetricsRegistry::global();
  reg.counter("dddf.bytes_sent").add(bytes_sent_);
  reg.counter("dddf.bytes_received").add(bytes_received_);
}

void MpiTransport::send_register(Guid guid, int home) {
  int me = rank();
  ctx_.post_exec([guid, home, me](smpi::Comm& comm) {
    RegisterMsg msg{guid, me};
    comm.send(&msg, sizeof msg, home, kTagRegister);
  });
}

void MpiTransport::send_data(Guid guid, int to, Bytes payload) {
  // Progress context == communication worker: send directly.
  Bytes wire(sizeof(Guid) + payload.size());
  std::memcpy(wire.data(), &guid, sizeof(Guid));
  if (!payload.empty()) {
    std::memcpy(wire.data() + sizeof(Guid), payload.data(), payload.size());
  }
  ctx_.post_exec([wire = std::move(wire), to](smpi::Comm& comm) {
    comm.send(wire.data(), wire.size(), to, kTagData);
  });
  ++data_sent_;
  bytes_sent_ += payload.size();
}

void MpiTransport::post(std::function<void()> fn) {
  ctx_.post_exec([fn = std::move(fn)](smpi::Comm&) { fn(); });
}

void MpiTransport::finalize_barrier(std::uint64_t timeout_ms) {
  if (timeout_ms == 0) timeout_ms = fault::finalize_timeout_ms();
  if (timeout_ms != 0) {
    // Announce arrival out-of-band before joining the barrier proper. The
    // broadcast only happens on the deadlined path, so the common
    // wait-forever configuration pays nothing extra.
    int me = rank();
    arrived_[std::size_t(me)].store(true, std::memory_order_release);
    for (int r = 0; r < size(); ++r) {
      if (r == me) continue;
      ctx_.post_exec([me, r](smpi::Comm& comm) {
        comm.send(&me, sizeof me, r, kTagArrive);
      });
    }
  }
  // The hcmpi non-blocking barrier progresses on the communication worker
  // loop, which also drives poll() — the listener keeps serving stragglers.
  hcmpi::RequestHandle req = ctx_.submit_nb_barrier();
  if (timeout_ms == 0) {
    hcmpi::Context::block_until(req);
    return;
  }
  if (hcmpi::Context::block_until_deadline(req, timeout_ms)) return;
  // Deadline expired: pull this rank out of the stuck collective so the
  // communication worker can still shut down cleanly, then name the ranks
  // whose ARRIVE never landed.
  if (!ctx_.cancel(req)) return;  // completed at the wire — we lost the race
  std::vector<int> missing;
  for (int r = 0; r < size(); ++r) {
    if (!arrived_[std::size_t(r)].load(std::memory_order_acquire)) {
      missing.push_back(r);
    }
  }
  // missing may be empty: everyone announced arrival but the barrier script
  // itself stalled (e.g. step traffic lost past the retry budget). Still a
  // timeout — the message then names no ranks rather than fabricating some.
  throw BarrierTimeout(rank(), std::move(missing));
}

bool MpiTransport::poll(smpi::Comm& comm) {
  // A remote rank's Space can race ahead of local Space construction: the
  // constructor arms the poller, but the protocol handlers are installed by
  // Space::bind() afterwards. Until that release-store lands, leave traffic
  // queued in smpi rather than dispatching into half-assigned handlers.
  if (!handlers_bound()) return false;
  bool progress = false;
  smpi::Status st;
  while (comm.iprobe(smpi::kAnySource, kTagRegister, &st)) {
    RegisterMsg msg{};
    comm.recv(&msg, sizeof msg, st.source, kTagRegister);
    ++regs_received_;
    progress = true;
    on_register_(msg.guid, msg.requester);
  }
  while (comm.iprobe(smpi::kAnySource, kTagArrive, &st)) {
    int peer = -1;
    comm.recv(&peer, sizeof peer, st.source, kTagArrive);
    progress = true;
    if (peer >= 0 && peer < size()) {
      arrived_[std::size_t(peer)].store(true, std::memory_order_release);
    }
  }
  while (comm.iprobe(smpi::kAnySource, kTagData, &st)) {
    Bytes wire(st.count_bytes);
    comm.recv(wire.data(), wire.size(), st.source, kTagData);
    progress = true;
    Guid guid = 0;
    std::memcpy(&guid, wire.data(), sizeof(Guid));
    Bytes payload(wire.begin() + sizeof(Guid), wire.end());
    bytes_received_ += payload.size();
    if (support::trace::enabled()) {
      // poll() runs on the communication worker — a registered producer
      // slot, so current_worker() resolves to its ring.
      if (hc::Worker* w = hc::Runtime::current_worker()) {
        w->trace_ring().record(support::trace::Ev::kDddfData,
                               std::uint32_t(guid), payload.size());
      }
    }
    on_data_(guid, std::move(payload));
  }
  return progress;
}

}  // namespace dddf
