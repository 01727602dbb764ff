// Per-rank matching engine: the posted-receive queue and the
// unexpected-message queue, with MPI matching rules — (source, tag, context)
// with wildcards, FIFO per channel, posted entries matched in post order.
// Every envelope arrives exactly once: World::deliver guarantees it on both
// transports, so the endpoint keeps no duplicate filter of its own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "smpi/request.h"
#include "smpi/types.h"

namespace smpi {

struct Envelope {
  int source = 0;
  int tag = 0;
  std::uint32_t context = 0;
  std::vector<std::uint8_t> payload;

  // Injection timestamp (trace epoch ns), stamped in isend only while prof
  // telemetry is on; 0 otherwise. Feeds the injection-to-delivery and
  // injection-to-completion latency histograms at the endpoint.
  std::uint64_t ts_inject = 0;
};

class Endpoint {
 public:
  explicit Endpoint(int rank) : rank_(rank) {}

  int rank() const { return rank_; }

  // Sender side: deliver an envelope to this (destination) endpoint. Matches
  // the oldest compatible posted receive or lands in the unexpected queue.
  void deliver(Envelope&& env);

  // Receiver side: post a receive request. If an unexpected message already
  // matches, the request completes immediately.
  void post_recv(const Request& req);

  // Cancel a pending posted receive. True if it was still pending here.
  bool cancel_recv(const Request& req);

  // Non-blocking probe of the unexpected queue.
  bool iprobe(int source, int tag, std::uint32_t context, Status* st);
  // Blocking probe.
  void probe(int source, int tag, std::uint32_t context, Status* st);

  // Blocks until req->done(). (Completions signal the condition variable.)
  void wait_request(const Request& req);

  // Blocks until any request in the span completes; returns its index.
  std::size_t wait_any(const std::vector<Request>& reqs);

  // Counters for tests.
  std::uint64_t unexpected_high_water() const { return unexpected_hw_; }

 private:
  static bool matches(const RequestState& r, const Envelope& e) {
    return r.context == e.context &&
           (r.match_source == kAnySource || r.match_source == e.source) &&
           (r.match_tag == kAnyTag || r.match_tag == e.tag);
  }

  void complete_recv_locked(const Request& req, Envelope& env);

  const int rank_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> posted_;
  std::deque<Envelope> unexpected_;
  std::uint64_t unexpected_hw_ = 0;
};

}  // namespace smpi
