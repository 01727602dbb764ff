// hc-net tests: wire framing, receiver-side sequencing, the Fabric's
// connection supervision / reliability machinery over real loopback
// sockets, and the socket-backed World with hcmpi and DDDF on top.
//
// Everything here runs multiple Fabrics inside ONE process (the socket
// loopback configuration) so the full reliability layer — framing, acks,
// RTO retransmission, reconnect, heartbeats, death detection — is exercised
// under TSan without fork/exec. The multi-process path is covered by the CI
// `multiproc` job running the tier-1 suites under hcmpi_launch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "dddf/space.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "net/boot.h"
#include "net/fabric.h"
#include "net/frame.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/metrics.h"

namespace {

using net::Frame;
using net::FrameKind;

// --- framing ----------------------------------------------------------------

Frame sample_frame() {
  Frame f;
  f.kind = FrameKind::kSmpi;
  f.flags = net::kFlagError;
  f.a = 0x1234;
  f.src = 3;
  f.dst = 7;
  f.seq = 0x0102030405060708ull;
  f.payload = {1, 2, 3, 4, 5};
  return f;
}

TEST(NetFrame, HeaderRoundtrip) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  ASSERT_EQ(wire.size(), net::kHeaderBytes + 5);

  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(r.next(&out));
  EXPECT_EQ(out.kind, FrameKind::kSmpi);
  EXPECT_EQ(out.flags, net::kFlagError);
  EXPECT_EQ(out.a, 0x1234);
  EXPECT_EQ(out.src, 3u);
  EXPECT_EQ(out.dst, 7u);
  EXPECT_EQ(out.seq, 0x0102030405060708ull);
  EXPECT_EQ(out.payload, (net::Bytes{1, 2, 3, 4, 5}));
  EXPECT_FALSE(r.next(&out));
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrame, SplitFeedReassembles) {
  // Partial reads are the normal case on a real socket: feed one byte at a
  // time and expect both frames to come out whole, in order.
  net::Bytes wire;
  Frame a = sample_frame();
  Frame b = sample_frame();
  b.seq = 9;
  b.payload = {42};
  net::append_frame(wire, a);
  net::append_frame(wire, b);

  net::FrameReader r;
  std::vector<Frame> out;
  for (std::uint8_t byte : wire) {
    r.feed(&byte, 1);
    Frame f;
    while (r.next(&f)) out.push_back(std::move(f));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, a.seq);
  EXPECT_EQ(out[1].seq, 9u);
  EXPECT_EQ(out[1].payload, net::Bytes{42});
}

TEST(NetFrame, BadMagicPoisonsReader) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  wire[0] ^= 0xFF;
  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(r.next(&f));
  EXPECT_TRUE(r.corrupt());
  // A poisoned reader stays poisoned: the connection must be dropped.
  net::Bytes good;
  net::append_frame(good, sample_frame());
  r.feed(good.data(), good.size());
  EXPECT_FALSE(r.next(&f));
}

TEST(NetFrame, OversizeLengthPoisonsReader) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  // Patch the length field (last u32 of the header) to something absurd.
  std::uint32_t huge = net::kMaxFrameBytes + 1;
  std::memcpy(wire.data() + net::kHeaderBytes - 4, &huge, 4);
  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(r.next(&f));
  EXPECT_TRUE(r.corrupt());
}

TEST(NetFrame, SubheaderHelpersRoundtrip) {
  net::Bytes b;
  net::put_u32(b, 0xDEADBEEFu);
  net::put_u64(b, 0x1122334455667788ull);
  net::put_i32(b, -17);
  net::ByteReader rd(b);
  std::uint32_t u = 0;
  std::uint64_t v = 0;
  std::int32_t i = 0;
  ASSERT_TRUE(rd.u32(&u));
  ASSERT_TRUE(rd.u64(&v));
  ASSERT_TRUE(rd.i32(&i));
  EXPECT_EQ(u, 0xDEADBEEFu);
  EXPECT_EQ(v, 0x1122334455667788ull);
  EXPECT_EQ(i, -17);
  EXPECT_EQ(rd.remaining(), 0u);
  EXPECT_FALSE(rd.u32(&u));  // past the end reports a torn subheader
}

// --- receiver-side sequencing ----------------------------------------------

Frame seq_frame(std::uint64_t seq) {
  Frame f;
  f.kind = FrameKind::kSmpi;
  f.seq = seq;
  return f;
}

TEST(NetReorderer, GapBuffersAndReleasesInOrder) {
  net::Reorderer ro;
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  ASSERT_EQ(rel.size(), 1u);
  rel.clear();

  EXPECT_TRUE(ro.push(seq_frame(2), &rel));  // gap: buffered
  EXPECT_TRUE(ro.push(seq_frame(3), &rel));
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(ro.buffered(), 2u);

  EXPECT_TRUE(ro.push(seq_frame(1), &rel));  // fills the gap
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel[0].seq, 1u);
  EXPECT_EQ(rel[1].seq, 2u);
  EXPECT_EQ(rel[2].seq, 3u);
  EXPECT_EQ(ro.next_seq(), 4u);
}

TEST(NetReorderer, DuplicateBelowHorizonIsDropped) {
  // A retransmit that raced its ack is the Reorderer's to drop: it is the
  // only duplicate filter, so nothing above it may see the frame twice.
  // push() still returns true, so the caller acks it again.
  net::Reorderer ro;
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  rel.clear();
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(ro.next_seq(), 1u);  // horizon unchanged
  EXPECT_EQ(ro.buffered(), 0u);
}

TEST(NetReorderer, DuplicateOfBufferedDroppedAndCapRejects) {
  net::Reorderer ro(2);
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(5), &rel));
  EXPECT_TRUE(ro.push(seq_frame(5), &rel));  // dup of buffered: dropped, acked
  EXPECT_EQ(ro.buffered(), 1u);
  EXPECT_TRUE(ro.push(seq_frame(6), &rel));
  // Buffer full and another gap frame arrives: rejected, must NOT be acked.
  EXPECT_FALSE(ro.push(seq_frame(7), &rel));
  EXPECT_TRUE(rel.empty());
}

// --- fabric (socket loopback mesh) ------------------------------------------

// N Fabrics in one process over a private session directory, each with a
// per-proc sink collecting delivered frames. Timers are shortened so death
// detection and teardown fit a unit test. Assertions run over the raw
// delivered stream: the fabric releases each reliable frame exactly once,
// so a spurious RTO retransmit under CI load must not show up in it.
struct Mesh {
  struct Sink {
    std::mutex mu;
    std::vector<Frame> frames;
  };

  std::string session;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<net::Fabric>> fabrics;

  explicit Mesh(int nprocs, std::size_t sendq_cap = 1024,
                std::uint32_t connect_window_ms = 5000, int skip_proc = -1) {
    std::string tmpl = "/tmp/hcmpi-net-test.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    session = mkdtemp(buf.data());
    sinks.resize(std::size_t(nprocs));
    fabrics.resize(std::size_t(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      sinks[std::size_t(p)] = std::make_unique<Sink>();
      if (p != skip_proc) start(p, nprocs, sendq_cap, connect_window_ms);
    }
  }

  void start(int p, int nprocs, std::size_t sendq_cap,
             std::uint32_t connect_window_ms) {
    net::FabricOptions o;
    o.session = session;
    o.proc = p;
    o.nprocs = nprocs;
    o.heartbeat_ms = 10;
    o.death_timeout_ms = 300;
    o.connect_window_ms = connect_window_ms;
    o.rto_ms = 20;
    o.sendq_cap = sendq_cap;
    o.shutdown_timeout_ms = 2000;
    o.rank_base = p;
    o.rank_count = 1;
    Sink* sink = sinks[std::size_t(p)].get();
    fabrics[std::size_t(p)] =
        std::make_unique<net::Fabric>(o, [sink](Frame&& f) {
          std::lock_guard<std::mutex> lk(sink->mu);
          sink->frames.push_back(std::move(f));
        });
  }

  // Loopback goodbyes only complete when every side is shutting down, so
  // teardown must be concurrent (same as World's).
  void shutdown_all() {
    std::vector<std::jthread> js;
    for (auto& f : fabrics) {
      if (f) js.emplace_back([&f] { f->shutdown(); });
    }
    js.clear();  // join
  }

  ~Mesh() {
    shutdown_all();
    fabrics.clear();
    std::string cmd = "rm -rf '" + session + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }

  // Proc p's delivered stream as the fabric handed it up, unfiltered.
  std::vector<Frame> delivered(int p) {
    std::lock_guard<std::mutex> lk(sinks[std::size_t(p)]->mu);
    return sinks[std::size_t(p)]->frames;
  }

  bool wait_delivered(int p, std::size_t n, int ms = 10000) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (delivered(p).size() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

Frame data_frame(std::uint32_t tag, std::size_t pad = 0) {
  Frame f;
  f.kind = FrameKind::kSmpi;
  net::put_u32(f.payload, tag);
  f.payload.resize(f.payload.size() + pad);
  return f;
}

std::uint32_t tag_of(const Frame& f) {
  net::ByteReader rd(f.payload);
  std::uint32_t v = 0;
  rd.u32(&v);
  return v;
}

TEST(NetFabric, TwoProcDelivery) {
  Mesh m(2);
  const int kN = 50;
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  ASSERT_TRUE(m.wait_delivered(1, kN));
  std::vector<Frame> got = m.delivered(1);
  ASSERT_EQ(got.size(), std::size_t(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(tag_of(got[std::size_t(i)]), std::uint32_t(i));
    EXPECT_EQ(got[std::size_t(i)].src, 0u);
  }
}

TEST(NetFabric, FourProcAllToAll) {
  Mesh m(4);
  const int kPer = 20;
  {
    std::vector<std::jthread> senders;
    for (int p = 0; p < 4; ++p) {
      senders.emplace_back([&m, p] {
        for (int i = 0; i < kPer; ++i) {
          for (int q = 0; q < 4; ++q) {
            if (q == p) continue;
            Frame f = data_frame(std::uint32_t(p * 1000 + i));
            ASSERT_EQ(m.fabrics[std::size_t(p)]->send(q, f),
                      net::Fabric::SendResult::kOk);
          }
        }
      });
    }
  }
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(m.wait_delivered(q, 3 * kPer)) << "proc " << q;
    // Per-source in-order delivery: each sender's tags ascend.
    std::map<std::uint32_t, std::uint32_t> last;
    for (const Frame& f : m.delivered(q)) {
      std::uint32_t tag = tag_of(f);
      auto it = last.find(f.src);
      if (it != last.end()) {
        EXPECT_LT(it->second, tag);
      }
      last[f.src] = tag;
    }
  }
}

TEST(NetFabric, ReconnectRepairsStreamExactlyOnce) {
  // Connections are dropped mid-stream; the supervisor reconnects and the
  // retransmit queue repairs the tail, resending frames whose acks died
  // with the old connection. The raw delivered stream must still carry
  // every connection seq exactly once, in order: the receiver's Reorderer
  // survives the reconnect and drops the resent copies.
  Mesh m(2);
  const int kN = 200;
  std::jthread chaos([&m] {
    for (int i = 0; i < 6; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      m.fabrics[0]->drop_connections();
      m.fabrics[1]->drop_connections();
    }
  });
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  chaos.join();
  ASSERT_TRUE(m.wait_delivered(1, kN));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Frame> got = m.delivered(1);
  ASSERT_EQ(got.size(), std::size_t(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(got[std::size_t(i)].seq, std::uint64_t(i));
    EXPECT_EQ(tag_of(got[std::size_t(i)]), std::uint32_t(i));
  }
}

TEST(NetFabric, ResendOfReleasedFramesAfterReconnectIsDropped) {
  // The reconnect path's duplicate, made on purpose: proc 1 holds its acks
  // back (pause_tx) and then loses them with its connection, so proc 0
  // resends every frame on the new connection although proc 1 already
  // released them all. The raw delivered stream must not repeat any.
  auto& reg = support::MetricsRegistry::global();
  Mesh m(2);
  Frame first = data_frame(0);
  ASSERT_EQ(m.fabrics[0]->send(1, first), net::Fabric::SendResult::kOk);
  ASSERT_TRUE(m.wait_delivered(1, 1));  // the connection is up
  const int kN = 50;
  m.fabrics[1]->pause_tx(true);
  for (int i = 1; i <= kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  ASSERT_TRUE(m.wait_delivered(1, kN + 1));
  const std::uint64_t resent0 = reg.counter_value("net.retransmits");
  const std::uint64_t reconnects0 = reg.counter_value("net.reconnect.count");
  m.fabrics[1]->drop_connections();  // the held acks die with the connection
  // Unpause only once the connection was re-established, so the held acks
  // cannot leave on the old one.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reg.counter_value("net.reconnect.count") == reconnects0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no reconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m.fabrics[1]->pause_tx(false);
  m.shutdown_all();  // the flush phase waits until proc 0 saw every ack
  EXPECT_GE(reg.counter_value("net.retransmits") - resent0, std::uint64_t(kN));
  std::vector<Frame> got = m.delivered(1);
  ASSERT_EQ(got.size(), std::size_t(kN + 1));
  for (int i = 0; i <= kN; ++i) {
    EXPECT_EQ(tag_of(got[std::size_t(i)]), std::uint32_t(i));
  }
}

TEST(NetFabric, KillSurfacesPeerDeath) {
  Mesh m(2);
  Frame f = data_frame(1);
  ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  ASSERT_TRUE(m.wait_delivered(1, 1));

  m.fabrics[1]->kill();  // SIGKILL stand-in: no goodbye, sockets just close
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!m.fabrics[0]->peer_dead(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "death never detected";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Frame g = data_frame(2);
  EXPECT_EQ(m.fabrics[0]->try_send(1, g),
            net::Fabric::SendResult::kPeerDead);
  EXPECT_EQ(m.fabrics[0]->dead_peers(), std::vector<int>{1});
}

TEST(NetFabric, NeverConnectedPeerRefusedAfterWindow) {
  // Proc 1 never starts: after the connect window, sends fail kRefused
  // instead of queueing forever.
  Mesh m(2, 1024, /*connect_window_ms=*/200, /*skip_proc=*/1);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!m.fabrics[0]->peer_dead(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "refused-dead never declared";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Frame f = data_frame(1);
  EXPECT_EQ(m.fabrics[0]->try_send(1, f),
            net::Fabric::SendResult::kRefused);
}

TEST(NetFabric, BackpressureReportsWouldBlock) {
  // Writes frozen + large payloads: the outbuf high-water mark stops the
  // queue drain, the bounded sendq fills, try_send reports kWouldBlock
  // instead of buffering without limit.
  Mesh m(2, /*sendq_cap=*/4);
  m.fabrics[0]->pause_tx(true);
  const std::size_t kPad = 512 * 1024;
  bool would_block = false;
  int accepted = 0;
  for (int i = 0; i < 16 && !would_block; ++i) {
    Frame f = data_frame(std::uint32_t(i), kPad);
    switch (m.fabrics[0]->try_send(1, f)) {
      case net::Fabric::SendResult::kOk:
        ++accepted;
        break;
      case net::Fabric::SendResult::kWouldBlock:
        would_block = true;
        break;
      default:
        FAIL() << "unexpected send result";
    }
    // Give the IO thread a moment to drain the sendq into the outbuf.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(would_block);
  m.fabrics[0]->pause_tx(false);
  ASSERT_TRUE(m.wait_delivered(1, std::size_t(accepted)));
  Frame f = data_frame(99);
  EXPECT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  ASSERT_TRUE(m.wait_delivered(1, std::size_t(accepted) + 1));
}

TEST(NetFabric, ShutdownFlushesQueuedFrames) {
  Mesh m(2);
  const int kN = 100;
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  // Shutdown's flush phase must not discard anything still in flight.
  m.shutdown_all();
  EXPECT_EQ(m.delivered(1).size(), std::size_t(kN));
}

TEST(NetFabric, ChaosDropDupDelayExactlyOnce) {
  // Seeded wire chaos at the socket transmit point: drops are repaired by
  // RTO retransmission, duplicates and delays by the receiver's Reorderer.
  // The raw delivered stream must still be 0..N-1 in order, once each.
  fault::reset();
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.05;
  cfg.delay_p = 0.10;
  cfg.delay_us = 100;
  cfg.dup_p = 0.05;
  fault::configure(cfg);
  {
    Mesh m(2);
    const int kN = 300;
    for (int i = 0; i < kN; ++i) {
      Frame f = data_frame(std::uint32_t(i));
      ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
    }
    ASSERT_TRUE(m.wait_delivered(1, kN, 20000));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::vector<Frame> got = m.delivered(1);
    ASSERT_EQ(got.size(), std::size_t(kN));
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(got[std::size_t(i)].seq, std::uint64_t(i));
      EXPECT_EQ(tag_of(got[std::size_t(i)]), std::uint32_t(i));
    }
  }
  fault::reset();
}

// --- socket-backed World -----------------------------------------------------

// Switches the process into socket mode with unit-test-sized timers, and
// restores everything on teardown (the rest of the suite must keep running
// in thread mode).
class SocketWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = net::mode();
    setenv("HCMPI_NET_HEARTBEAT_MS", "10", 1);
    setenv("HCMPI_NET_DEATH_TIMEOUT_MS", "400", 1);
    setenv("HCMPI_NET_RTO_MS", "20", 1);
    setenv("HCMPI_NET_CONNECT_MS", "2000", 1);
    setenv("HCMPI_NET_SHUTDOWN_MS", "3000", 1);
    net::reload_proc_env();
    net::set_mode(net::Mode::kSocket);
  }
  void TearDown() override {
    net::set_mode(prev_mode_);
    unsetenv("HCMPI_NET_HEARTBEAT_MS");
    unsetenv("HCMPI_NET_DEATH_TIMEOUT_MS");
    unsetenv("HCMPI_NET_RTO_MS");
    unsetenv("HCMPI_NET_CONNECT_MS");
    unsetenv("HCMPI_NET_SHUTDOWN_MS");
    net::reload_proc_env();
    fault::reset();
  }

 private:
  net::Mode prev_mode_ = net::Mode::kThread;
};

TEST_F(SocketWorldTest, PointToPointOverLoopbackSockets) {
  smpi::World::run(3, [](smpi::Comm& comm) {
    int right = (comm.rank() + 1) % comm.size();
    int left = (comm.rank() + comm.size() - 1) % comm.size();
    int out = comm.rank() * 10;
    int in = -1;
    comm.sendrecv(&out, sizeof out, right, 7, &in, sizeof in, left, 7);
    EXPECT_EQ(in, left * 10);
    comm.barrier();
  });
}

TEST_F(SocketWorldTest, RepeatedOpenCloseIsClean) {
  // Teardown-order hardening: Worlds (and their fabrics, sockets, IO
  // threads) come and go repeatedly in one process. Leaked fds, unjoined
  // threads or use-after-free in the teardown path show up here — this is
  // the case the tsan CI job runs.
  for (int iter = 0; iter < 8; ++iter) {
    smpi::World::run(3, [](smpi::Comm& comm) {
      int token = comm.rank();
      comm.bcast(&token, sizeof token, 0);
      EXPECT_EQ(token, 0);
      comm.barrier();
    });
  }
}

TEST_F(SocketWorldTest, ChaosOverSocketsStaysExactlyOnce) {
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.05;
  cfg.delay_p = 0.10;
  cfg.delay_us = 100;
  fault::configure(cfg);
  // Sum-allreduce is wrong if any message is lost or double-applied.
  smpi::World::run(3, [](smpi::Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      long mine = comm.rank() + 1 + round;
      long sum = -1;
      comm.allreduce(&mine, &sum, 1, smpi::Datatype::kLong, smpi::Op::kSum);
      EXPECT_EQ(sum, 6 + 3 * round);
    }
  });
}

TEST_F(SocketWorldTest, DddfChainOverLoopbackSocketsExactlyOnce) {
  // DDDF over real sockets: Space(ctx, ...) rides MpiTransport, so every
  // REGISTER and DATA batch is an smpi message over the socket wire, with
  // drops and duplicates injected on it. Each link k-1 -> k of the chain
  // crosses ranks, so a lost message hangs the chain, and a duplicate that
  // got past the fabric's Reorderer shows up as an extra REGISTER or a
  // second put of one DDF. The chain is long enough that, at this seed,
  // the injected duplicates land on protocol frames, not only on acks.
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.05;
  cfg.dup_p = 0.05;
  fault::configure(cfg);
  constexpr int kRanks = 3, kDepth = 48;
  std::atomic<int> final_value{-1};
  std::atomic<std::uint64_t> registers{0}, datas{0};
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, {
        .home = [](dddf::Guid g) { return int(g % kRanks); },
        .size = [](dddf::Guid) { return sizeof(int); },
    });
    ctx.run([&] {
      hc::finish([&] {
        for (int k = 0; k < kDepth; ++k) {
          if (int(dddf::Guid(k) % kRanks) != ctx.rank()) continue;
          if (k == 0) {
            space.put_value<int>(0, 1);
          } else {
            dddf::Guid prev = dddf::Guid(k - 1);
            space.async_await({prev}, [&space, prev, k] {
              space.put_value<int>(dddf::Guid(k),
                                   space.get_value<int>(prev) + 1);
            });
          }
        }
      });
      space.finalize();
      dddf::Guid last = dddf::Guid(kDepth - 1);
      if (space.is_home(last)) final_value.store(space.get_value<int>(last));
    });
    registers.fetch_add(space.registrations_received());
    datas.fetch_add(space.data_messages_sent());
  });
  EXPECT_EQ(final_value.load(), kDepth);
  // Guid k is consumed only by the home of k+1: exactly one REGISTER and
  // one DATA per (guid, consumer rank).
  EXPECT_EQ(registers.load(), std::uint64_t(kDepth - 1));
  EXPECT_EQ(datas.load(), std::uint64_t(kDepth - 1));
}

}  // namespace
