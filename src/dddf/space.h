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
//     home rank through the transport;
//   * the home rank answers with DATA once the value exists (a listener —
//     the transport's progress context — serves late registrations);
//   * the payload is cached locally, so "the data transfer from home to
//     remote happens at most once" and later awaits succeed immediately;
//   * finalize() is the global termination step that lets every rank's
//     listener keep serving until all ranks are provably quiescent.
//
// The space is transport-agnostic (paper §I: APGNS "can be implemented atop
// a wide range of communication runtimes"): use the hcmpi-backed
// MpiTransport (the paper's configuration) or the MPI-free active-message
// AmTransport. The dynamic single-assignment rule of DDFs makes the remote
// cache trivially coherent and all accesses race-free and deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ddf.h"
#include "dddf/transport.h"

namespace hcmpi {
class Context;
}

namespace dddf {

struct SpaceConfig {
  std::function<int(Guid)> home;          // DDF_HOME
  std::function<std::size_t(Guid)> size;  // DDF_SIZE
};

class Space {
 public:
  // Convenience: the paper's configuration — protocol over the HCMPI
  // communication worker. Collective across all ranks of ctx.
  Space(hcmpi::Context& ctx, SpaceConfig cfg);

  // Any transport implementing dddf::Transport.
  Space(std::unique_ptr<Transport> transport, SpaceConfig cfg);

  ~Space();

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  int rank() const { return transport_->rank(); }
  bool is_home(Guid guid) const { return cfg_.home(guid) == rank(); }

  // DDF_HANDLE: the local DDF backing this guid (created on first use).
  hc::DdfBase* handle(Guid guid);

  // DDF_PUT: home rank only (the paper's producers always put at home).
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
  // issuing remote fetches for guids homed elsewhere. The task copies the
  // handles, so a list as wide as a task holds inline goes through a stack
  // array.
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

  // Introspection for tests.
  std::uint64_t data_messages_sent() const {
    return data_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t registrations_received() const {
    return regs_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t remote_gets_issued() const {
    return gets_issued_.load(std::memory_order_relaxed);
  }
  Transport& transport() { return *transport_; }

 private:
  struct Entry {
    hc::Ddf<Bytes> ddf;
    std::atomic<bool> fetch_requested{false};
  };

  Entry* ensure(Guid guid);
  // handle() + remote fetch kick-off.
  hc::DdfBase* request(Guid guid);
  // Progress-context handlers (installed on the transport).
  void on_register(Guid guid, int requester);
  void on_data(Guid guid, Bytes payload);
  void serve(Guid guid, Entry* e, int requester);

  std::unique_ptr<Transport> transport_;
  SpaceConfig cfg_;

  std::mutex mu_;
  std::unordered_map<Guid, std::unique_ptr<Entry>> entries_;
  std::atomic<bool> finalized_{false};

  // Progress-context-only state (no lock needed).
  struct Waiting {
    Entry* entry = nullptr;
    std::vector<int> requesters;
  };
  std::unordered_map<Guid, Waiting> pending_;  // registered before the put
  std::unordered_map<Guid, std::unordered_set<int>> served_;
  // Bumped on the progress context only, but read from computation threads
  // (test introspection after finalize, the teardown metrics export, the
  // watchdog dump) with no synchronizing edge — hence relaxed atomics.
  std::atomic<std::uint64_t> data_sent_{0};
  std::atomic<std::uint64_t> regs_received_{0};
  // Bumped from consumer threads (first await on a remote guid).
  std::atomic<std::uint64_t> gets_issued_{0};

  // Relaxed mirrors of the progress-context counters above, readable from
  // the watchdog's diagnostic dump (any thread).
  std::atomic<std::uint64_t> pending_guids_{0};
  std::atomic<std::uint64_t> served_pairs_{0};
  int diag_id_ = -1;  // fault::register_diagnostic handle
};

}  // namespace dddf
