// Distributed Data-Driven Futures (paper §II-D, §III-B) — the APGNS model.
//
// Every DDDF is named by a user-managed globally unique id (guid). The user
// provides two callbacks, available on all ranks:
//
//   home(guid) -> rank that owns the value   (the paper's DDF_HOME)
//   size(guid) -> payload byte size          (the paper's DDF_SIZE)
//
// handle(guid) returns the rank-local view. The home rank produces the value
// with put(); any rank consumes it with async_await + get(). Under the hood:
//
//   * the first local await on a remote guid sends REGISTER(guid, me) to the
//     home rank, once per rank and guid;
//   * the home rank answers with DATA once the value exists: at once when
//     the REGISTER finds it, otherwise when the put's flush reaches the
//     communication worker's poller (the listener);
//   * the payload is cached locally, so "the data transfer from home to
//     remote happens at most once" and later awaits succeed immediately;
//   * finalize() is the global termination step that lets every rank's
//     listener keep serving until all ranks are provably quiescent.
//
// Each guid has one Entry on each rank that touches it: the DDF, whether
// this rank has asked the home for it, and the ranks whose REGISTER arrived
// before the put. The protocol rides the HCMPI communication worker (paper
// §III-B), in thread and socket mode alike, and all of it runs in that
// worker's poller, so the waiting lists need no locks. No protocol step is
// a comm task: registrations and put flushes wait in an outbox that the
// poller drains on every turn (each push rings a parked communication
// worker under the outbox lock), and the poller sends DATA itself.
//
// Wire format, on the system communicator: one smpi message per destination
// per poller step.
//   REGISTER  guid[n]                        the requester is the source
//   DATA      {guid, length, payload}[n]     records back to back
//   ARRIVE    empty                          deadlined finalize only
// A message holds at most kBatchCap bytes; a DATA record larger than that
// travels alone. A DATA batch leaves right after the poller step that filled
// it (the put flushes, or one received REGISTER batch), so serving a batch
// of registrations never waits for the rest of the turn.
//
// The dynamic single-assignment rule of DDFs makes the remote cache trivially
// coherent and all accesses race-free and deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ddf.h"
#include "support/spin.h"

namespace hcmpi {
class Context;
}
namespace smpi {
class Comm;
}

namespace dddf {

using Guid = std::uint64_t;
using Bytes = std::vector<std::uint8_t>;

// Thrown by finalize when a deadline was set and some ranks never arrived
// (rank death, lost protocol traffic past the retry budget) — `missing()`
// names them, turning the classic hang-forever into an actionable
// diagnostic.
class BarrierTimeout : public std::runtime_error {
 public:
  BarrierTimeout(int rank, std::vector<int> missing);
  int rank() const { return rank_; }
  const std::vector<int>& missing() const { return missing_; }

 private:
  int rank_;
  std::vector<int> missing_;
};

struct SpaceConfig {
  std::function<int(Guid)> home;          // DDF_HOME
  std::function<std::size_t(Guid)> size;  // DDF_SIZE
};

class Space {
 public:
  static constexpr std::size_t kBatchCap = 64 * 1024;
  static constexpr std::size_t kRecordHeader = 2 * sizeof(std::uint64_t);

  // Collective across all ranks of ctx. The poller is armed last, so a
  // REGISTER from a rank whose Space came up first waits in smpi until this
  // one is whole.
  Space(hcmpi::Context& ctx, SpaceConfig cfg);

  ~Space();

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  int rank() const { return rank_; }
  bool is_home(Guid guid) const { return cfg_.home(guid) == rank(); }

  // DDF_HANDLE: the local DDF backing this guid (created on first use).
  hc::DdfBase* handle(Guid guid);

  // DDF_PUT: home rank only (the paper's producers always put at home).
  // Throws std::out_of_range, as an await does, when home(guid) names no
  // rank of the world.
  void put(Guid guid, Bytes data);
  template <typename T>
  void put_value(Guid guid, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    put(guid, std::move(b));
  }

  // DDF_GET: non-blocking; throws hc::PrematureGet when the value has not
  // reached this rank yet (program error per the paper).
  const Bytes& get(Guid guid);
  template <typename T>
  T get_value(Guid guid) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Bytes& b = get(guid);
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }

  // async AWAIT(guids...) { fn }: spawns fn as a DDT gated on every guid,
  // issuing remote fetches for guids homed elsewhere; a guid whose
  // home(guid) names no rank throws std::out_of_range before it is fetched.
  // The task copies the handles, so a list as wide as a task holds inline
  // goes through a stack array.
  template <typename F>
  void async_await(const std::vector<Guid>& guids, F&& fn) {
    hc::DdfBase* inline_deps[hc::AndFrame::kInline] = {};
    std::vector<hc::DdfBase*> wide;
    hc::DdfBase** deps = inline_deps;
    if (guids.size() > hc::AndFrame::kInline) {
      wide.resize(guids.size());
      deps = wide.data();
    }
    for (std::size_t i = 0; i < guids.size(); ++i) deps[i] = request(guids[i]);
    hc::async_await(deps, guids.size(), std::forward<F>(fn));
  }

  // Global termination (paper §III-B): every rank calls finalize after its
  // computation finish completes; listeners keep serving stragglers until
  // the system is quiescent. In a checked build (-DHCMPI_CHECK=ON), put()
  // or a new remote await after finalize() throws hc::check::CheckError:
  // protocol traffic behind the termination detector's back deadlocks or
  // drops data at scale even when a small run happens to survive it.
  //
  // timeout_ms bounds the wait for global quiescence: 0 defers to the
  // process-wide fault::finalize_timeout_ms() (default: wait forever); a
  // nonzero effective deadline turns a hung barrier into BarrierTimeout
  // naming the ranks that never arrived.
  void finalize(std::uint64_t timeout_ms = 0);

  // Introspection for tests, readable from any thread: per-guid protocol
  // records...
  std::uint64_t data_messages_sent() const {
    return data_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t registrations_received() const {
    return regs_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t remote_gets_issued() const {
    return gets_issued_.load(std::memory_order_relaxed);
  }
  // ...and the batched smpi messages that carry them.
  std::uint64_t register_batches_received() const {
    return register_batches_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t data_batches_sent() const {
    return data_batches_sent_.load(std::memory_order_relaxed);
  }

 private:
  // The one record of a guid on this rank, created on first use and kept
  // until the Space goes, so an Entry* stays valid across rehashes.
  struct Entry {
    hc::Ddf<Bytes> ddf;
    std::atomic<bool> fetch_requested{false};
    // Ranks whose REGISTER arrived before the put (home rank, poller only).
    std::vector<int> waiting;
  };
  // Filled from any thread under out_mu_; the poller swaps it out whole.
  struct Outbox {
    std::vector<std::vector<Guid>> registers;  // per home rank
    // Puts whose waiting lists to serve.
    std::vector<std::pair<Guid, Entry*>> flushes;
    bool arrive = false;  // broadcast ARRIVE to every peer
  };
  // A DATA batch being filled for one destination: records back to back,
  // cut into messages of at most kBatchCap bytes.
  struct DataBatch {
    Bytes buf;
    std::vector<std::size_t> cuts;  // offsets where a new message starts
  };

  // home(guid), checked to name a rank of the world.
  int home_of(Guid guid) const;
  Entry* ensure(Guid guid);
  // handle() + remote fetch kick-off.
  hc::DdfBase* request(Guid guid);

  // The communication worker's poller and what it runs.
  bool poll(smpi::Comm& comm);
  // Sends everything queued in the outbox; false when it was empty.
  bool drain_outbox(smpi::Comm& comm);
  // Sends every non-empty DATA batch.
  void flush_data(smpi::Comm& comm);
  void on_register(Guid guid, int requester);
  void on_data(Guid guid, Bytes payload);
  void serve(Guid guid, const Entry& e, int requester);
  // Appends a record to the DATA batch for `to`.
  void append_data(Guid guid, int to, const Bytes& payload);

  // Members are grouped by the threads that write them, each group on cache
  // lines of its own. The out_mu_ line is written by every put and every
  // poller drain; sharing it with the entries_ header, which every get, put
  // and DATA record reads, cost perfbench's sw_dddf about 5% of its rate on
  // a 4-vCPU Xeon VM.

  // Written at construction, under mu_, or once by finalize.
  hcmpi::Context& ctx_;
  SpaceConfig cfg_;
  const int rank_;
  const int size_;
  int diag_id_ = -1;  // fault::register_diagnostic handle
  std::mutex mu_;
  std::unordered_map<Guid, Entry> entries_;
  std::atomic<bool> finalized_{false};
  // Barrier-arrival flags (one-shot; finalize happens once per Space): set
  // by the poller when a peer's ARRIVE lands, read by a deadlined finalize
  // to name the ranks that never made it.
  std::vector<std::atomic<bool>> arrived_;

  // Handed from computation threads to the poller.
  alignas(64) support::SpinLock out_mu_;
  Outbox out_;                          // guarded by out_mu_
  std::atomic<bool> out_dirty_{false};  // out_ holds something
  // Bumped from consumer threads (first await on a remote guid).
  std::atomic<std::uint64_t> gets_issued_{0};

  // Poller-only state (no lock needed).
  alignas(64) Outbox draining_;      // the outbox being sent; swapped with out_
  std::vector<DataBatch> data_out_;  // per destination rank
  Bytes rx_;                         // receive buffer
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  // Bumped by the poller, but read from computation threads (test
  // introspection after finalize, the teardown metrics export, the watchdog
  // dump) with no synchronizing edge — hence relaxed atomics.
  std::atomic<std::uint64_t> data_sent_{0};
  std::atomic<std::uint64_t> regs_received_{0};
  std::atomic<std::uint64_t> register_batches_received_{0};
  std::atomic<std::uint64_t> data_batches_sent_{0};
};

}  // namespace dddf
