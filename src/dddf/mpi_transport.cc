#include "dddf/mpi_transport.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>

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

constexpr std::size_t kGuidsPerMessage = MpiTransport::kBatchCap / sizeof(Guid);
}  // namespace

MpiTransport::MpiTransport(hcmpi::Context& ctx) :
    Transport(ctx.rank(), ctx.size()), ctx_(ctx) {
  const auto ranks = std::size_t(ctx.size());
  out_.registers.resize(ranks);
  draining_.registers.resize(ranks);
  data_out_.resize(ranks);
  arrived_ = std::make_unique<std::atomic<bool>[]>(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    arrived_[r].store(false, std::memory_order_relaxed);
  }
  ctx_.set_poller([this](smpi::Comm& comm) { return poll(comm); });
}

MpiTransport::~MpiTransport() {
  // Send what is still queued, then handshake the poller out of the
  // communication worker before this object's state (and the Space handlers
  // it dispatches into) goes away.
  hcmpi::Context::block_until(ctx_.post_exec_async(
      [this](smpi::Comm& comm) { drain_outbox(comm); }));
  ctx_.clear_poller();
  auto& reg = support::MetricsRegistry::global();
  reg.counter("dddf.bytes_sent").add(bytes_sent_);
  reg.counter("dddf.bytes_received").add(bytes_received_);
}

void MpiTransport::send_register(Guid guid, int home) {
  std::lock_guard<support::SpinLock> lk(out_mu_);
  out_.registers[std::size_t(home)].push_back(guid);
  out_dirty_.store(true, std::memory_order_release);
}

void MpiTransport::post(std::function<void()> fn) {
  std::lock_guard<support::SpinLock> lk(out_mu_);
  out_.posted.push_back(std::move(fn));
  out_dirty_.store(true, std::memory_order_release);
}

void MpiTransport::send_data(Guid guid, int to, const Bytes& payload) {
  DataBatch& b = data_out_[std::size_t(to)];
  const std::size_t start = b.cuts.empty() ? 0 : b.cuts.back();
  const std::size_t at = b.buf.size();
  if (at > start && at - start + kRecordHeader + payload.size() > kBatchCap) {
    b.cuts.push_back(at);
  }
  const std::uint64_t header[2] = {guid, payload.size()};
  b.buf.resize(at + kRecordHeader + payload.size());
  std::memcpy(b.buf.data() + at, header, kRecordHeader);
  if (!payload.empty()) {
    std::memcpy(b.buf.data() + at + kRecordHeader, payload.data(),
                payload.size());
  }
  bytes_sent_ += payload.size();
}

void MpiTransport::flush_data(smpi::Comm& comm) {
  for (std::size_t to = 0; to < data_out_.size(); ++to) {
    DataBatch& b = data_out_[to];
    if (b.buf.empty()) continue;
    b.cuts.push_back(b.buf.size());
    std::size_t start = 0;
    for (std::size_t end : b.cuts) {
      comm.send(b.buf.data() + start, end - start, int(to), kTagData);
      start = end;
    }
    data_batches_sent_.fetch_add(b.cuts.size(), std::memory_order_relaxed);
    b.buf.clear();
    b.cuts.clear();
  }
}

bool MpiTransport::drain_outbox(smpi::Comm& comm) {
  if (!out_dirty_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<support::SpinLock> lk(out_mu_);
    std::swap(out_, draining_);
    out_dirty_.store(false, std::memory_order_relaxed);
  }
  for (std::size_t home = 0; home < draining_.registers.size(); ++home) {
    std::vector<Guid>& guids = draining_.registers[home];
    for (std::size_t i = 0; i < guids.size(); i += kGuidsPerMessage) {
      const std::size_t n = std::min(kGuidsPerMessage, guids.size() - i);
      comm.send(guids.data() + i, n * sizeof(Guid), int(home), kTagRegister);
    }
    guids.clear();
  }
  for (auto& fn : draining_.posted) fn();
  draining_.posted.clear();
  flush_data(comm);
  if (draining_.arrive) {
    draining_.arrive = false;
    for (int r = 0; r < size(); ++r) {
      if (r != rank()) comm.send(nullptr, 0, r, kTagArrive);
    }
  }
  return true;
}

void MpiTransport::finalize_barrier(std::uint64_t timeout_ms) {
  if (timeout_ms == 0) timeout_ms = fault::finalize_timeout_ms();
  if (timeout_ms != 0) {
    // Announce arrival out-of-band before joining the barrier proper. The
    // broadcast only happens on the deadlined path, so the common
    // wait-forever configuration pays nothing extra.
    arrived_[std::size_t(rank())].store(true, std::memory_order_release);
    std::lock_guard<support::SpinLock> lk(out_mu_);
    out_.arrive = true;
    out_dirty_.store(true, std::memory_order_release);
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
  bool progress = drain_outbox(comm);
  smpi::Status st;
  while (comm.iprobe(smpi::kAnySource, kTagRegister, &st)) {
    rx_.resize(st.count_bytes);
    comm.recv(rx_.data(), rx_.size(), st.source, kTagRegister);
    register_batches_received_.fetch_add(1, std::memory_order_relaxed);
    progress = true;
    for (std::size_t off = 0; off + sizeof(Guid) <= rx_.size();
         off += sizeof(Guid)) {
      Guid guid = 0;
      std::memcpy(&guid, rx_.data() + off, sizeof(Guid));
      on_register_(guid, st.source);
    }
    flush_data(comm);
  }
  while (comm.iprobe(smpi::kAnySource, kTagArrive, &st)) {
    comm.recv(nullptr, 0, st.source, kTagArrive);
    progress = true;
    arrived_[std::size_t(st.source)].store(true, std::memory_order_release);
  }
  while (comm.iprobe(smpi::kAnySource, kTagData, &st)) {
    rx_.resize(st.count_bytes);
    comm.recv(rx_.data(), rx_.size(), st.source, kTagData);
    progress = true;
    for (std::size_t off = 0; off < rx_.size();) {
      std::uint64_t header[2];
      if (rx_.size() - off < kRecordHeader) {
        throw std::runtime_error("dddf: truncated DATA record header");
      }
      std::memcpy(header, rx_.data() + off, kRecordHeader);
      off += kRecordHeader;
      const Guid guid = header[0];
      const std::size_t len = header[1];
      if (rx_.size() - off < len) {
        throw std::runtime_error("dddf: truncated DATA record payload");
      }
      Bytes payload(rx_.begin() + std::ptrdiff_t(off),
                    rx_.begin() + std::ptrdiff_t(off + len));
      off += len;
      bytes_received_ += len;
      if (support::trace::enabled()) {
        // poll() runs on the communication worker — a registered producer
        // slot, so current_worker() resolves to its ring.
        if (hc::Worker* w = hc::Runtime::current_worker()) {
          w->trace_ring().record(support::trace::Ev::kDddfData,
                                 std::uint32_t(guid), len);
        }
      }
      on_data_(guid, std::move(payload));
    }
  }
  return progress;
}

}  // namespace dddf
