#include "dddf/space.h"

#include <algorithm>
#include <string>

#include "check/check.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "prof/prof.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace dddf {

namespace {
// Tags in the system communicator's point-to-point context. Collectives on
// that communicator run in its private collective context, so these never
// match collective traffic.
constexpr int kTagRegister = 1000;
constexpr int kTagData = 1001;
// Barrier-arrival announcement: lets a deadlined finalize name the ranks
// that never reached it instead of hanging forever.
constexpr int kTagArrive = 1002;

constexpr std::size_t kGuidsPerMessage = Space::kBatchCap / sizeof(Guid);

// Messages are built with += throughout: GCC 12 at -O3 warns (-Wrestrict)
// on `"literal" + std::string`.
std::string timeout_message(int rank, const std::vector<int>& missing) {
  std::string s = "dddf: finalize barrier timed out on rank ";
  s += std::to_string(rank);
  s += "; ranks never arrived:";
  for (int r : missing) {
    s += ' ';
    s += std::to_string(r);
  }
  return s;
}

[[noreturn]] void throw_bad_home(Guid guid, int home, int size) {
  std::string s = "dddf: home(guid ";
  s += std::to_string(guid);
  s += ") = ";
  s += std::to_string(home);
  s += " is not a rank of this world of ";
  s += std::to_string(size);
  throw std::out_of_range(s);
}
}  // namespace

BarrierTimeout::BarrierTimeout(int rank, std::vector<int> missing)
    : std::runtime_error(timeout_message(rank, missing)),
      rank_(rank), missing_(std::move(missing)) {}

Space::Space(hcmpi::Context& ctx, SpaceConfig cfg)
    : ctx_(ctx), cfg_(std::move(cfg)), rank_(ctx.rank()), size_(ctx.size()),
      arrived_(std::size_t(ctx.size())) {
  const auto ranks = std::size_t(size_);
  out_.registers.resize(ranks);
  draining_.registers.resize(ranks);
  data_out_.resize(ranks);
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
            "  dddf.space rank=%d entries=%llu gets_issued=%llu "
            "registrations=%llu data_sent=%llu finalized=%d\n",
            rank(), (unsigned long long)entries,
            (unsigned long long)remote_gets_issued(),
            (unsigned long long)registrations_received(),
            (unsigned long long)data_messages_sent(),
            int(finalized_.load(std::memory_order_relaxed)));
      });
  // Last: from here on the communication worker dispatches into this object.
  ctx_.set_poller([this](smpi::Comm& comm) { return poll(comm); });
}

Space::~Space() {
  fault::unregister_diagnostic(diag_id_);
  // Send what is still queued, then handshake the poller out of the
  // communication worker before the protocol tables it dispatches into go
  // away.
  hcmpi::Context::block_until(ctx_.post_exec_async(
      [this](smpi::Comm& comm) { drain_outbox(comm); }));
  ctx_.clear_poller();
  // Fold this rank's protocol counters into the process-wide registry.
  auto& reg = support::MetricsRegistry::global();
  reg.counter("dddf.remote_gets_issued").add(remote_gets_issued());
  reg.counter("dddf.registrations_received").add(registrations_received());
  reg.counter("dddf.data_messages_sent").add(data_messages_sent());
  reg.counter("dddf.bytes_sent").add(bytes_sent_);
  reg.counter("dddf.bytes_received").add(bytes_received_);
}

int Space::home_of(Guid guid) const {
  const int home = cfg_.home(guid);
  if (home < 0 || home >= size_) throw_bad_home(guid, home, size_);
  return home;
}

Space::Entry* Space::ensure(Guid guid) {
  std::lock_guard<std::mutex> lk(mu_);
  return &entries_.try_emplace(guid).first->second;
}

hc::DdfBase* Space::handle(Guid guid) { return &ensure(guid)->ddf; }

hc::DdfBase* Space::request(Guid guid) {
  const int home = home_of(guid);
  Entry* e = ensure(guid);
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
    // its intent on receiving the put data"). The poller sends one REGISTER
    // message per home rank per turn.
    gets_issued_.fetch_add(1, std::memory_order_relaxed);
    prof::Probe().instant(support::trace::Ev::kDddfGetIssued,
                          std::uint32_t(guid));
    std::lock_guard<support::SpinLock> lk(out_mu_);
    out_.registers[std::size_t(home)].push_back(guid);
    out_dirty_.store(true, std::memory_order_release);
    ctx_.wake_comm_worker();
  }
  return &e->ddf;
}

void Space::put(Guid guid, Bytes data) {
  if (home_of(guid) != rank()) {
    throw std::logic_error("dddf: DDF_PUT must run on the guid's home rank");
  }
  if (hc::check::enabled() && finalized_.load(std::memory_order_acquire)) {
    throw hc::check::CheckError(
        "hc-check: DDDF put after Space::finalize() — remote consumers can "
        "no longer be served");
  }
  Entry* e = ensure(guid);
  e->ddf.put(std::move(data));  // releases local DDTs
  // Registrations that arrived before the put wait on the entry, which only
  // the poller touches, so the entry is queued for the poller to serve them.
  // A REGISTER the poller handles from here on sees the DDF satisfied and is
  // served at once; one it handled before is on the list: never both.
  std::lock_guard<support::SpinLock> lk(out_mu_);
  out_.flushes.emplace_back(guid, e);
  out_dirty_.store(true, std::memory_order_release);
  ctx_.wake_comm_worker();
}

const Bytes& Space::get(Guid guid) { return ensure(guid)->ddf.get(); }

void Space::serve(Guid guid, const Entry& e, int requester) {
  const Bytes& value = e.ddf.get();
  prof::Probe().instant(support::trace::Ev::kDddfServed, std::uint32_t(guid),
                        value.size());
  append_data(guid, requester, value);
  data_sent_.fetch_add(1, std::memory_order_relaxed);
}

// A rank sends one REGISTER per guid and smpi delivers it once, so serving
// each REGISTER once, here or at the put's flush, is at-most-once transfer.
void Space::on_register(Guid guid, int requester) {
  regs_received_.fetch_add(1, std::memory_order_relaxed);
  Entry* e = ensure(guid);
  if (e->ddf.satisfied()) {
    serve(guid, *e, requester);  // the "listener task" answering late arrivals
  } else {
    e->waiting.push_back(requester);
  }
}

void Space::on_data(Guid guid, Bytes payload) {
  ensure(guid)->ddf.put(std::move(payload));  // wakes awaiting DDTs
}

void Space::append_data(Guid guid, int to, const Bytes& payload) {
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

void Space::flush_data(smpi::Comm& comm) {
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

bool Space::drain_outbox(smpi::Comm& comm) {
  // A push rings a parked communication worker under out_mu_, so its last
  // look before parking reads the flag under the lock too.
  const bool parking = ctx_.comm_worker_parking();
  if (!parking && !out_dirty_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<support::SpinLock> lk(out_mu_);
    if (!out_dirty_.load(std::memory_order_relaxed)) return false;
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
  for (auto [guid, e] : draining_.flushes) {
    for (int requester : e->waiting) serve(guid, *e, requester);
    std::vector<int>().swap(e->waiting);  // served once; release the list
  }
  draining_.flushes.clear();
  flush_data(comm);
  if (draining_.arrive) {
    draining_.arrive = false;
    for (int r = 0; r < size_; ++r) {
      if (r != rank()) comm.send(nullptr, 0, r, kTagArrive);
    }
  }
  return true;
}

bool Space::poll(smpi::Comm& comm) {
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
      on_register(guid, st.source);
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
      prof::Probe().instant(support::trace::Ev::kDddfData,
                            std::uint32_t(guid), len);
      on_data(guid, std::move(payload));
    }
  }
  return progress;
}

void Space::finalize(std::uint64_t timeout_ms) {
  finalized_.store(true, std::memory_order_release);
  // When every rank has reached finalize, every await was satisfied, hence
  // every registration was served and no protocol message is in flight: a
  // single system-wide barrier *whose progress engine keeps the listener
  // serving* is a sound termination detector (DESIGN.md §5). The hcmpi
  // non-blocking barrier progresses on the communication worker's loop,
  // which also runs poll().
  if (timeout_ms == 0) timeout_ms = fault::finalize_timeout_ms();
  if (timeout_ms != 0) {
    // Announce arrival out-of-band before joining the barrier proper. The
    // broadcast only happens on the deadlined path, so the common
    // wait-forever configuration pays nothing extra.
    arrived_[std::size_t(rank())].store(true, std::memory_order_release);
    std::lock_guard<support::SpinLock> lk(out_mu_);
    out_.arrive = true;
    out_dirty_.store(true, std::memory_order_release);
    ctx_.wake_comm_worker();
  }
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
  for (int r = 0; r < size_; ++r) {
    if (!arrived_[std::size_t(r)].load(std::memory_order_acquire)) {
      missing.push_back(r);
    }
  }
  // missing may be empty: everyone announced arrival but the barrier script
  // itself stalled (e.g. step traffic lost past the retry budget). Still a
  // timeout — the message then names no ranks rather than fabricating some.
  throw BarrierTimeout(rank(), std::move(missing));
}

}  // namespace dddf
