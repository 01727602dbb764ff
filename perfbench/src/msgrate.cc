// Workload `msgrate`: HCMPI point-to-point through communication tasks
// (Context::isend/irecv), 8-byte payloads, on the thread transport.
//
// One round is a windowed stream (the ANL thread-test message-rate shape:
// rank 0 isends kWindow messages inside a finish, rank 1 posts kWindow
// irecvs each awaited by a DDT, then acks the window) followed by kPings
// ping-pongs with one message in flight. work_per_s counts stream messages
// over the stream phase; latency is the ping-pong round trip.
//
// Check: every stream payload carries its sequence number (mixed with a
// seed-derived salt), so the receiver checks content and per-channel order;
// it also checks the count per round. Each pong must echo its ping's
// counter plus one, and each ping must carry the counter rank 1 expects.

#include "bench.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

namespace {

constexpr int kWindow = 64;
constexpr int kWindows = 64;  // stream messages per round: 4096
constexpr int kPings = 256;
constexpr int kStreamTag = 1, kAckTag = 2, kPingTag = 3, kPongTag = 4;

struct Shared {
  std::uint64_t salt = 0;
  std::uint64_t skew = 0;  // 1 with --wrong-reference: every check fails
  Timed timed;  // rank 0
  std::uint64_t msgs_delivered = 0;
  double round_wall_s = 0;  // whole timed rounds, stream and ping-pong
};

void sender(hcmpi::Context& ctx, Shared& sh, Checks& checks, bool timed,
            std::uint64_t& seq, std::uint64_t& counter) {
  std::uint64_t out[kWindow];
  std::uint8_t ack = 0;
  const std::uint64_t t0 = now_ns();
  const double c0 = cpu_seconds();
  for (int w = 0; w < kWindows; ++w) {
    hc::finish([&] {
      for (int i = 0; i < kWindow; ++i) {
        out[i] = seq ^ sh.salt;
        isend(ctx, &out[i], sizeof out[i], 1, kStreamTag, seq);
        ++seq;
      }
    });
    recv(ctx, &ack, sizeof ack, 1, kAckTag);
  }
  if (timed) {
    sh.timed.add_round(double(now_ns() - t0) * 1e-9, cpu_seconds() - c0,
                       kWindow * kWindows);
  }
  for (int k = 0; k < kPings; ++k) {
    std::uint64_t ping = counter, pong = 0;
    const std::uint64_t t = now_ns();
    send(ctx, &ping, sizeof ping, 1, kPingTag, k);
    recv(ctx, &pong, sizeof pong, 1, kPongTag, k);
    if (timed) sh.timed.latency_us.add(double(now_ns() - t) * 1e-3);
    checks.expect(pong == ping + 1 + sh.skew, "msgrate: pong does not echo ping + 1");
    counter += 2;
  }
}

void receiver(hcmpi::Context& ctx, Shared& sh, Checks& checks, std::uint64_t& seq,
              std::uint64_t& counter) {
  std::uint64_t in[kWindow];
  std::uint8_t ack = 1;
  std::uint64_t got = 0;
  for (int w = 0; w < kWindows; ++w) {
    hc::finish([&] {
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t want = ((seq + std::uint64_t(i)) ^ sh.salt) + sh.skew;
        const std::uint64_t posted = now_ns();
        hcmpi::RequestHandle r = irecv(ctx, &in[i], sizeof in[i], 0, kStreamTag, seq + i);
        await({r.get()}, [&, i, want, posted, r] {
          trace::sample(trace::kRequest, double(now_ns() - posted));
          checks.expect(r->get().count_bytes == sizeof in[i] && in[i] == want,
                        "msgrate: stream payload out of order or corrupt");
          ++got;
        }, seq + i);
      }
    });
    seq += kWindow;
    send(ctx, &ack, sizeof ack, 0, kAckTag);
  }
  checks.expect(got == kWindow * kWindows + sh.skew, "msgrate: stream message count");
  for (int k = 0; k < kPings; ++k) {
    std::uint64_t ping = 0;
    recv(ctx, &ping, sizeof ping, 0, kPingTag, k);
    checks.expect(ping == counter + sh.skew, "msgrate: ping counter out of sequence");
    std::uint64_t pong = ping + 1;
    send(ctx, &pong, sizeof pong, 0, kPongTag, k);
    counter += 2;
  }
}

void rank_body(smpi::Comm& comm, const Options& o, Shared& sh, Checks& checks,
               LayerCounters& counters) {
  hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
  pin_rank_threads(ctx);
  ctx.run([&] {
    Rounds rounds(ctx, o);
    bool timed = false;
    std::uint64_t seq = 0, counter = sh.salt >> 8;
    auto& delivered = support::MetricsRegistry::global().counter("smpi.messages_delivered");
    while (rounds.next(&timed)) {
      ctx.barrier();
      const std::uint64_t d0 = delivered.value();
      const std::uint64_t t0 = now_ns();
      // The round runs as a task so its time counts as worker-busy time.
      hc::finish([&] {
        spawn([&] {
          if (ctx.rank() == 0) sender(ctx, sh, checks, timed, seq, counter);
          else receiver(ctx, sh, checks, seq, counter);
        });
      });
      ctx.barrier();
      if (ctx.rank() == 0 && timed) {
        sh.round_wall_s += double(now_ns() - t0) * 1e-9;
        sh.msgs_delivered += delivered.value() - d0;
      }
    }
    counters = rounds.counters;
  });
}

}  // namespace

void run_msgrate(const Options& o, Checks& checks, Metrics& m) {
  Shared sh;
  sh.salt = support::SplitMix64::mix(o.seed);
  sh.skew = o.wrong_reference ? 1 : 0;
  LayerCounters counters[kRanks];
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    rank_body(comm, o, sh, checks, counters[comm.rank()]);
  });
  sh.timed.report(m);
  if (trace::enabled()) {
    LayerCounters total;
    for (const auto& c : counters) total += c;
    report_layers(total, sh.timed.work, sh.round_wall_s, sh.msgs_delivered, m);
    m["hcmpi.rtt_overhead_us"] = m["latency_p50_us"] - m["smpi.rtt_us.p50"];
  }
}

}  // namespace pb
