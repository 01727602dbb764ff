// DDDF transport over the HCMPI communication worker (paper §III-B): the
// REGISTER/DATA protocol rides the system communicator, and all of it runs
// in the communication worker's poller. No protocol step is a comm task:
// registrations and put flushes wait in an outbox that the poller drains on
// every turn, and DATA is sent by the poller itself.
//
// Wire format: one smpi message per destination per poller step.
//   REGISTER  guid[n]                        the requester is the source
//   DATA      {guid, length, payload}[n]     records back to back
//   ARRIVE    empty                          deadlined finalize only
// A message holds at most kBatchCap bytes; a DATA record larger than that
// travels alone. A DATA batch leaves right after the poller step that filled
// it (the put flushes, or one received REGISTER batch), so serving a batch
// of registrations never waits for the rest of the turn.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "dddf/transport.h"
#include "hcmpi/context.h"
#include "support/spin.h"

namespace dddf {

class MpiTransport : public Transport {
 public:
  static constexpr std::size_t kBatchCap = 64 * 1024;
  static constexpr std::size_t kRecordHeader = 2 * sizeof(std::uint64_t);

  explicit MpiTransport(hcmpi::Context& ctx);
  ~MpiTransport() override;  // exports dddf.bytes_* to the global registry

  void send_register(Guid guid, int home) override;
  // Appends a record to the DATA batch for `to`.
  void send_data(Guid guid, int to, const Bytes& payload) override;
  void post(std::function<void()> fn) override;
  void finalize_barrier(std::uint64_t timeout_ms = 0) override;

  // Protocol messages, as opposed to the per-guid records they carry (which
  // Space counts). Readable from any thread.
  std::uint64_t register_batches_received() const {
    return register_batches_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t data_batches_sent() const {
    return data_batches_sent_.load(std::memory_order_relaxed);
  }

 private:
  // Filled from any thread under out_mu_; the poller swaps it out whole.
  struct Outbox {
    std::vector<std::vector<Guid>> registers;  // per home rank
    std::vector<std::function<void()>> posted;
    bool arrive = false;  // broadcast ARRIVE to every peer
  };
  // A DATA batch being filled for one destination: records back to back,
  // cut into messages of at most kBatchCap bytes.
  struct DataBatch {
    Bytes buf;
    std::vector<std::size_t> cuts;  // offsets where a new message starts
  };

  bool poll(smpi::Comm& comm);
  // Sends everything queued in the outbox; false when it was empty.
  bool drain_outbox(smpi::Comm& comm);
  // Sends every non-empty DATA batch.
  void flush_data(smpi::Comm& comm);

  hcmpi::Context& ctx_;

  support::SpinLock out_mu_;
  Outbox out_;                         // guarded by out_mu_
  std::atomic<bool> out_dirty_{false};  // out_ holds something

  // Poller only.
  Outbox draining_;  // the outbox being sent; swapped with out_
  std::vector<DataBatch> data_out_;  // per destination rank
  Bytes rx_;                         // receive buffer
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;

  std::atomic<std::uint64_t> register_batches_received_{0};
  std::atomic<std::uint64_t> data_batches_sent_{0};

  // Barrier-arrival flags (one-shot; finalize happens once per Space): set
  // by poll() when a peer's ARRIVE lands, read by a deadlined
  // finalize_barrier to name the ranks that never made it.
  std::unique_ptr<std::atomic<bool>[]> arrived_;
};

}  // namespace dddf
