// Non-blocking request objects. A Request is a counted handle to completion
// state; completion happens under the owning endpoint's lock and is observed
// via test/wait on any thread.
//
// States are pooled per endpoint: isend and irecv take one from their
// rank's endpoint, and the last handle to drop returns it there, so a
// steady message stream allocates no request. A Request must not outlive
// its World (as an MPI request does not outlive MPI_Finalize).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "smpi/types.h"
#include "support/ref_ptr.h"

namespace smpi {

class Endpoint;

enum class ReqKind : std::uint8_t { kSend, kRecv };
enum class ReqState : std::uint8_t { kPending, kComplete, kCancelled };

struct RequestState {
  ReqKind kind = ReqKind::kSend;
  std::atomic<ReqState> state{ReqState::kPending};
  Status status{};

  // Recv bookkeeping (guarded by the owning endpoint's lock while pending).
  void* recv_buf = nullptr;
  std::size_t recv_cap = 0;
  int match_source = kAnySource;
  int match_tag = kAnyTag;
  std::uint32_t context = 0;
  Endpoint* owner = nullptr;  // the endpoint whose pool this state returns to

  bool done() const {
    return state.load(std::memory_order_acquire) != ReqState::kPending;
  }

  // Handle plumbing (support::RefPtr): the last unref returns the state to
  // its owner's free list.
  void ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void unref();

 private:
  friend class Endpoint;
  std::atomic<std::uint32_t> refs_{0};
  RequestState* next_free_ = nullptr;  // owner's free list, under its lock
};

using Request = support::RefPtr<RequestState>;

}  // namespace smpi
