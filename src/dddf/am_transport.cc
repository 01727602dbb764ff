#include "dddf/am_transport.h"

#include "fault/fault.h"
#include "prof/prof.h"
#include "support/metrics.h"
#include "support/spin.h"
#include "support/trace.h"

namespace dddf {

AmBus::AmBus(int nranks) {
  mailboxes_.reserve(std::size_t(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  for (int parity = 0; parity < 2; ++parity) {
    auto flags = std::make_unique<std::atomic<bool>[]>(std::size_t(nranks));
    for (int i = 0; i < nranks; ++i) flags[std::size_t(i)].store(false);
    barrier_flags_.push_back(std::move(flags));
  }
}

AmTransport::AmTransport(std::shared_ptr<AmBus> bus, int rank)
    : Transport(rank, bus->size()), bus_(std::move(bus)) {
  progress_ = std::jthread([this](std::stop_token st) { progress_loop(st); });
}

AmTransport::~AmTransport() {
  auto stop = std::make_unique<AmBus::Msg>();
  stop->kind = AmBus::Msg::Kind::kStop;
  deliver(rank(), std::move(stop));
  if (progress_.joinable()) progress_.join();
}

void AmTransport::deliver(int to, std::unique_ptr<AmBus::Msg> msg) {
  bus_->mailboxes_[std::size_t(to)]->queue.push(msg.release());
}

void AmTransport::send_protocol(int to, std::unique_ptr<AmBus::Msg> msg) {
  if (prof::telemetry()) msg->ts_inject = support::trace::now_ns();
  if (fault::enabled() && !fault::cross_in_memory(rank(), to)) return;
  deliver(to, std::move(msg));
}

void AmTransport::send_register(Guid guid, int home) {
  auto m = std::make_unique<AmBus::Msg>();
  m->kind = AmBus::Msg::Kind::kRegister;
  m->guid = guid;
  m->a = rank();
  send_protocol(home, std::move(m));
}

void AmTransport::send_data(Guid guid, int to, const Bytes& payload) {
  auto m = std::make_unique<AmBus::Msg>();
  m->kind = AmBus::Msg::Kind::kData;
  m->guid = guid;
  m->payload = payload;
  send_protocol(to, std::move(m));
  data_sent_.fetch_add(1, std::memory_order_relaxed);
}

void AmTransport::post(std::function<void()> fn) {
  auto m = std::make_unique<AmBus::Msg>();
  m->kind = AmBus::Msg::Kind::kPost;
  m->fn = std::move(fn);
  deliver(rank(), std::move(m));
}

void AmTransport::progress_loop(std::stop_token) {
  auto& mailbox = *bus_->mailboxes_[std::size_t(rank())];
  support::Backoff backoff;
  for (;;) {
    std::unique_ptr<AmBus::Msg> msg(mailbox.queue.pop());
    if (!msg) {
      backoff.pause();
      continue;
    }
    backoff.reset();
    if ((msg->kind == AmBus::Msg::Kind::kRegister ||
         msg->kind == AmBus::Msg::Kind::kData) &&
        !handlers_bound()) {
      // A remote rank can outrun this rank's Space construction: its first
      // REGISTER may land in the window between this thread starting (the
      // transport's constructor) and Space::bind() publishing the handlers.
      support::Backoff bind_wait;
      while (!handlers_bound()) bind_wait.pause();
    }
    if (msg->ts_inject != 0 && (msg->kind == AmBus::Msg::Kind::kRegister ||
                                msg->kind == AmBus::Msg::Kind::kData)) {
      // Injection-to-dispatch latency of a protocol message; includes any
      // injected lateness.
      static auto& h = support::MetricsRegistry::global().histogram(
          "am.delivery_latency_ns");
      std::uint64_t now = support::trace::now_ns();
      if (now >= msg->ts_inject) h.add(double(now - msg->ts_inject));
    }
    switch (msg->kind) {
      case AmBus::Msg::Kind::kRegister:
        on_register_(msg->guid, msg->a);
        break;
      case AmBus::Msg::Kind::kData:
        on_data_(msg->guid, std::move(msg->payload));
        break;
      case AmBus::Msg::Kind::kPost:
        msg->fn();
        break;
      case AmBus::Msg::Kind::kStop:
        return;
    }
  }
}

void AmTransport::finalize_barrier(std::uint64_t timeout_ms) {
  if (timeout_ms == 0) timeout_ms = fault::finalize_timeout_ms();
  // Sense-reversing barrier between *computation* threads; the progress
  // threads are untouched and keep serving stragglers throughout.
  std::uint64_t gen = bus_->barrier_generation_.load(std::memory_order_acquire);
  auto* flags = bus_->barrier_flags_[std::size_t(gen & 1)].get();
  flags[std::size_t(rank())].store(true, std::memory_order_release);
  if (bus_->barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) ==
      size() - 1) {
    bus_->barrier_arrived_.store(0, std::memory_order_relaxed);
    // Prepare the next generation's parity before releasing anyone: its
    // flags belong to generation gen-1, whose waiters all arrived (and set
    // them) strictly before this generation could complete.
    auto* next = bus_->barrier_flags_[std::size_t((gen + 1) & 1)].get();
    for (int r = 0; r < size(); ++r) {
      next[std::size_t(r)].store(false, std::memory_order_relaxed);
    }
    bus_->barrier_generation_.fetch_add(1, std::memory_order_acq_rel);
    bus_->barrier_generation_.notify_all();
    return;
  }
  if (timeout_ms == 0) {
    std::uint64_t v;
    while ((v = bus_->barrier_generation_.load(std::memory_order_acquire)) ==
           gen) {
      bus_->barrier_generation_.wait(v, std::memory_order_acquire);
    }
    return;
  }
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (bus_->barrier_generation_.load(std::memory_order_acquire) == gen) {
    if (Clock::now() >= deadline) {
      // Re-check after reading the flags: a release racing the deadline
      // would otherwise fabricate a missing list.
      std::vector<int> missing;
      for (int r = 0; r < size(); ++r) {
        if (!flags[std::size_t(r)].load(std::memory_order_acquire)) {
          missing.push_back(r);
        }
      }
      if (bus_->barrier_generation_.load(std::memory_order_acquire) != gen) {
        return;  // released while we were collecting
      }
      if (!missing.empty()) throw BarrierTimeout(rank(), std::move(missing));
      // Everyone arrived; the releaser is mid-flight — keep waiting.
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace dddf
