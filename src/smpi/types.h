// Public types of the smpi substrate: a from-scratch, in-process MPI-style
// message-passing library where each rank is an OS thread (DESIGN.md §2).
// It provides the exact functional surface HCMPI layers on: tagged
// point-to-point with wildcards and FIFO matching, non-blocking requests
// with test/wait/cancel, probe, and tree/dissemination collectives.
//
// Transfer semantics are eager/buffered: a send copies the payload into the
// destination endpoint's mailbox and completes immediately. That is a legal
// MPI buffered mode and keeps the substrate deadlock-transparent; wire-level
// timing is modeled separately in sim/ (never here).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace smpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// Collectives run in a private context derived from the communicator's, so
// user tags can never match collective traffic.
inline constexpr std::uint32_t kCollectiveContextBit = 0x80000000u;

enum class Datatype : std::uint8_t {
  kByte,
  kChar,
  kInt,
  kLong,
  kFloat,
  kDouble,
};

std::size_t datatype_size(Datatype t);

enum class Op : std::uint8_t {
  kSum,
  kProd,
  kMin,
  kMax,
  kLand,
  kLor,
  kBand,
  kBor,
  kBxor,
};

// Element-wise in-place combine: inout[i] = op(inout[i], in[i]).
void apply_op(Op op, Datatype t, void* inout, const void* in,
              std::size_t count);

enum class ErrorCode : int {
  kOk = 0,
  kTruncate = 1,     // message longer than the posted buffer
  kCancelled = 2,    // request cancelled before completion
  kTimeout = 3,      // request deadline expired before a match (hc-fault)
  kRankDead = 4,     // peer rank fail-stopped (kill injection or silence on
                     // the socket wire past the death timeout)
  kWouldBlock = 5,   // bounded socket send queue full; retry after a pause
  kConnRefused = 6,  // peer process never came up inside the connect window
};

inline const char* error_name(ErrorCode e) {
  switch (e) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kTruncate: return "truncate";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kRankDead: return "rank_dead";
    case ErrorCode::kWouldBlock: return "would_block";
    case ErrorCode::kConnRefused: return "conn_refused";
  }
  return "?";
}

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  ErrorCode error = ErrorCode::kOk;
  std::size_t count_bytes = 0;
  bool cancelled = false;

  // MPI_Get_count: element count of the received payload; throws if the
  // byte count is not a multiple of the datatype size.
  int get_count(Datatype t) const {
    std::size_t sz = datatype_size(t);
    if (count_bytes % sz != 0) {
      throw std::logic_error("smpi: Get_count with mismatched datatype");
    }
    return int(count_bytes / sz);
  }
};

class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const char* what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

}  // namespace smpi
