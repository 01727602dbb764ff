// Transport abstraction under the DDDF space (paper §I: "The APGNS model
// can be implemented atop a wide range of communication runtimes that
// includes MPI and GASNet"). A transport delivers the two protocol messages
// (REGISTER and DATA) and provides a progress context — a single thread per
// rank from which all handlers and posted closures run, so Space's
// home-side state needs no locks.
//
// Backends:
//   * MpiTransport (mpi_transport.h) — runs in the HCMPI communication
//     worker's poller over the smpi substrate; the configuration the paper
//     evaluates.
//   * AmTransport (am_transport.h)   — a GASNet-flavored active-message bus
//     with its own progress thread per rank; no MPI anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dddf {

using Guid = std::uint64_t;
using Bytes = std::vector<std::uint8_t>;

// Thrown by finalize_barrier when a deadline was set and some ranks never
// arrived (rank death, lost protocol traffic past the retry budget) —
// `missing()` names them, turning the classic hang-forever into an
// actionable diagnostic.
class BarrierTimeout : public std::runtime_error {
 public:
  BarrierTimeout(int rank, std::vector<int> missing)
      : std::runtime_error(format(rank, missing)),
        rank_(rank), missing_(std::move(missing)) {}
  int rank() const { return rank_; }
  const std::vector<int>& missing() const { return missing_; }

 private:
  static std::string format(int rank, const std::vector<int>& missing) {
    std::string s = "dddf: finalize barrier timed out on rank " +
                    std::to_string(rank) + "; ranks never arrived:";
    for (int r : missing) s += " " + std::to_string(r);
    return s;
  }
  int rank_;
  std::vector<int> missing_;
};

class Transport {
 public:
  // Home side: a remote rank registered intent on guid.
  using RegisterHandler = std::function<void(Guid, int requester)>;
  // Remote side: the home rank delivered guid's payload.
  using DataHandler = std::function<void(Guid, Bytes)>;

  virtual ~Transport() = default;

  int rank() const { return rank_; }
  int size() const { return size_; }

  // Installed once by Space before this rank issues any traffic. A *remote*
  // rank may still race ahead of local Space construction, so progress
  // engines that start before bind() (AmTransport's dedicated thread) must
  // check handlers_bound() before dispatching protocol messages.
  void bind(RegisterHandler on_register, DataHandler on_data) {
    on_register_ = std::move(on_register);
    on_data_ = std::move(on_data);
    bound_.store(true, std::memory_order_release);
  }

  // May be called from any thread. MpiTransport queues the registration
  // for its poller, which sends one REGISTER message per home rank per
  // turn; no comm task runs for it.
  virtual void send_register(Guid guid, int home) = 0;
  // Called from the progress context only (home side serving a value).
  virtual void send_data(Guid guid, int to, const Bytes& payload) = 0;
  // Runs fn on the progress context (serialized with handlers). MpiTransport
  // queues fn for its poller's next turn; no comm task runs for it.
  virtual void post(std::function<void()> fn) = 0;
  // Collective termination barrier; the progress engine MUST keep serving
  // protocol messages while blocked here (Space::finalize's soundness
  // argument depends on it). timeout_ms == 0 falls back to the process-wide
  // fault::finalize_timeout_ms() (which defaults to wait-forever); a nonzero
  // effective deadline turns a hung barrier into a thrown BarrierTimeout
  // naming the ranks that never arrived.
  virtual void finalize_barrier(std::uint64_t timeout_ms = 0) = 0;

 protected:
  Transport(int rank, int size) : rank_(rank), size_(size) {}

  bool handlers_bound() const {
    return bound_.load(std::memory_order_acquire);
  }

  RegisterHandler on_register_;
  DataHandler on_data_;

 private:
  std::atomic<bool> bound_{false};
  int rank_;
  int size_;
};

}  // namespace dddf
