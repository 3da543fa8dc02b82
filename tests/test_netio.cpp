// The real-network substrate: frame reassembly over actual sockets,
// adversarial byte streams, the reconnect backoff schedule, the mesh's
// fault proxy (hold/release, crash blackholing, seeded link faults, gray
// delay), and the bounded-run degradation contract -- a stalled net run
// must end as Backend::timed_out(), never as a hang or an abort.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "harness/backend.hpp"
#include "harness/protocol.hpp"
#include "harness/sweep.hpp"
#include "netio/backoff.hpp"
#include "netio/mesh.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace rr {
namespace {

using wire::FrameDecoder;
using wire::Message;

std::vector<Message> sample_messages() {
  return {
      wire::WAckMsg{7},
      wire::AbdQueryAckMsg{12, TsVal{5, "quorum"}},
      wire::BlWriteMsg{1, 6, std::string(300, 'x')},
      wire::FwWriteMsg{9, "fw"},
  };
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripsOverARealSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const auto sent = sample_messages();
  std::string bytes;
  for (const auto& m : sent) bytes += wire::encode_frame(m);
  ASSERT_EQ(::write(sv[0], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(sv[0]);  // EOF after the last frame

  FrameDecoder dec;
  std::vector<Message> got;
  char chunk[64];  // force many partial reads per frame
  for (;;) {
    const ssize_t n = ::read(sv[1], chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    EXPECT_TRUE(dec.feed(chunk, static_cast<std::size_t>(n),
                         [&](Message&& m) { got.push_back(std::move(m)); }));
  }
  ::close(sv[1]);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(dec.stats().frames, sent.size());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameTest, ReassemblesOneByteAtATime) {
  const auto sent = sample_messages();
  std::string bytes;
  for (const auto& m : sent) bytes += wire::encode_frame(m);
  FrameDecoder dec;
  std::vector<Message> got;
  for (const char c : bytes) {
    EXPECT_TRUE(
        dec.feed(&c, 1, [&](Message&& m) { got.push_back(std::move(m)); }));
  }
  EXPECT_EQ(got, sent);
  EXPECT_FALSE(dec.mid_frame()) << "no partial frame may remain";
}

TEST(FrameTest, MidFrameIsVisibleForReadTimeouts) {
  const std::string frame = wire::encode_frame(Message{wire::WAckMsg{1}});
  FrameDecoder dec;
  int delivered = 0;
  // Everything but the last byte: the decoder must report a pending frame.
  dec.feed(frame.data(), frame.size() - 1, [&](Message&&) { ++delivered; });
  EXPECT_TRUE(dec.mid_frame());
  EXPECT_EQ(delivered, 0);
  dec.feed(frame.data() + frame.size() - 1, 1, [&](Message&&) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameTest, BadPayloadIsCountedAndSkippedStreamContinues) {
  // A well-framed frame whose payload wire::decode() rejects must not kill
  // the stream: framing is intact, so the next frame still parses.
  std::string bytes = wire::encode_frame(Message{wire::WAckMsg{1}});
  bytes += wire::wrap_frame("\xff\xff garbage payload");
  bytes += wire::encode_frame(Message{wire::WAckMsg{2}});
  FrameDecoder dec;
  std::vector<Message> got;
  EXPECT_TRUE(dec.feed(bytes.data(), bytes.size(),
                       [&](Message&& m) { got.push_back(std::move(m)); }));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], Message{wire::WAckMsg{1}});
  EXPECT_EQ(got[1], Message{wire::WAckMsg{2}});
  EXPECT_EQ(dec.stats().bad_payload, 1u);
  EXPECT_FALSE(dec.poisoned());
}

TEST(FrameTest, ShardEnvelopeWithCorruptInnerTagIsCountedAndSkipped) {
  // A hostile envelope passes the framing check but not the codec: it must
  // be counted and dropped at the decoder, never reach a shard adapter.
  std::string bad = wire::encode(Message{wire::ShardMsg{1, wire::WAckMsg{4}}});
  bad[1 + 4 + 4] = '\xff';  // the inner message's tag
  const Message good = wire::ShardMsg{2, wire::ReadMsg{1, 9, 0}};
  std::string bytes = wire::wrap_frame(bad);
  bytes += wire::encode_frame(good);
  FrameDecoder dec;
  std::vector<Message> got;
  EXPECT_TRUE(dec.feed(bytes.data(), bytes.size(),
                       [&](Message&& m) { got.push_back(std::move(m)); }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], good);
  EXPECT_EQ(dec.stats().bad_payload, 1u);
  EXPECT_EQ(dec.stats().frames, 1u);
  EXPECT_FALSE(dec.poisoned());
}

TEST(FrameTest, BadMagicPoisonsTheStream) {
  std::string bytes = wire::encode_frame(Message{wire::WAckMsg{1}});
  bytes += "XXXXXXXX";  // not a header
  bytes += wire::encode_frame(Message{wire::WAckMsg{2}});
  FrameDecoder dec;
  int delivered = 0;
  EXPECT_FALSE(
      dec.feed(bytes.data(), bytes.size(), [&](Message&&) { ++delivered; }));
  EXPECT_EQ(delivered, 1) << "frames before the corruption still deliver";
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.stats().bad_magic, 1u);
  // A poisoned decoder is inert until reset.
  EXPECT_FALSE(dec.feed(bytes.data(), 1, [&](Message&&) { ++delivered; }));
  EXPECT_EQ(delivered, 1);
}

TEST(FrameTest, OversizedLengthPrefixPoisonsWithoutAllocating) {
  FrameDecoder dec(/*max_payload=*/1024);
  std::string header;
  const std::uint32_t magic = wire::kFrameMagic;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header += std::string(4, '\xff');  // claims a ~4 GiB payload
  int delivered = 0;
  EXPECT_FALSE(
      dec.feed(header.data(), header.size(), [&](Message&&) { ++delivered; }));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.stats().oversized, 1u);
  EXPECT_EQ(delivered, 0);
}

TEST(FrameTest, ResetClearsPoisonButKeepsCounters) {
  FrameDecoder dec;
  std::string junk = "junkjunk";
  dec.feed(junk.data(), junk.size(), [](Message&&) {});
  ASSERT_TRUE(dec.poisoned());
  dec.reset();
  EXPECT_FALSE(dec.poisoned());
  EXPECT_EQ(dec.stats().bad_magic, 1u) << "totals accumulate across reconnects";
  const std::string frame = wire::encode_frame(Message{wire::WAckMsg{3}});
  int delivered = 0;
  EXPECT_TRUE(
      dec.feed(frame.data(), frame.size(), [&](Message&&) { ++delivered; }));
  EXPECT_EQ(delivered, 1);
}

// Bit-flip torture across whole frame streams: any single-bit corruption is
// either survived (payload skipped) or detected (poison); never a crash,
// never a bogus extra message.
TEST(FrameTest, BitFlipTortureNeverCrashes) {
  std::string bytes;
  const auto sent = sample_messages();
  for (const auto& m : sent) bytes += wire::encode_frame(m);
  Rng rng(1234);
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = bytes;
    const auto pos = rng.index(mutated.size());
    mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                     (1u << rng.uniform(0, 7)));
    FrameDecoder dec;
    std::size_t delivered = 0;
    dec.feed(mutated.data(), mutated.size(), [&](Message&&) { ++delivered; });
    EXPECT_LE(delivered, sent.size());
    const auto& st = dec.stats();
    if (delivered < sent.size()) {
      EXPECT_GT(st.bad_magic + st.bad_payload + st.oversized +
                    (dec.mid_frame() ? 1u : 0u),
                0u)
          << "a lost message must be visible in the robustness counters";
    }
  }
}

// ---------------------------------------------------------------------------
// Reconnect backoff.
// ---------------------------------------------------------------------------

TEST(BackoffTest, ScheduleIsBoundedExponential) {
  netio::BackoffPolicy p;
  p.base_ns = 1'000'000;
  p.cap_ns = 8'000'000;
  EXPECT_EQ(netio::backoff_nominal_ns(p, 0), 0u) << "first attempt: immediate";
  EXPECT_EQ(netio::backoff_nominal_ns(p, 1), 1'000'000u);
  EXPECT_EQ(netio::backoff_nominal_ns(p, 2), 2'000'000u);
  EXPECT_EQ(netio::backoff_nominal_ns(p, 3), 4'000'000u);
  EXPECT_EQ(netio::backoff_nominal_ns(p, 4), 8'000'000u);
  EXPECT_EQ(netio::backoff_nominal_ns(p, 5), 8'000'000u) << "capped";
  EXPECT_EQ(netio::backoff_nominal_ns(p, 63), 8'000'000u)
      << "huge attempt counts must not overflow";
}

TEST(BackoffTest, JitterStaysInsideTheBand) {
  netio::BackoffPolicy p;
  p.base_ns = 1'000'000;
  p.cap_ns = 100'000'000;
  p.jitter = 0.25;
  Rng rng(99);
  for (std::uint32_t attempt = 1; attempt < 10; ++attempt) {
    const auto nominal = netio::backoff_nominal_ns(p, attempt);
    for (int i = 0; i < 50; ++i) {
      const auto d = netio::backoff_delay_ns(p, attempt, rng);
      EXPECT_GE(d, nominal - nominal / 4);
      EXPECT_LE(d, nominal + nominal / 4);
    }
  }
}

// ---------------------------------------------------------------------------
// The socket mesh and its fault proxy.
// ---------------------------------------------------------------------------

/// Counts deliveries; replies to BlWriteMsg with BlWriteAckMsg.
class EchoProcess : public net::Process {
 public:
  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    received.fetch_add(1, std::memory_order_relaxed);
    if (const auto* w = std::get_if<wire::BlWriteMsg>(&msg)) {
      ctx.send(from, wire::BlWriteAckMsg{w->phase, w->ts});
    }
  }
  std::atomic<std::uint64_t> received{0};
};

struct EchoMesh {
  explicit EchoMesh(const netio::MeshOptions& opts,
                    const net::LinkFaults* lf = nullptr)
      : mesh(opts) {
    for (int i = 0; i < 2; ++i) {
      auto p = std::make_unique<EchoProcess>();
      procs.push_back(p.get());
      mesh.add(std::move(p));
    }
    if (lf != nullptr) mesh.set_link_faults(*lf);  // contract: before start()
    mesh.start();
  }
  /// Posts `n` BlWriteMsg sends 0 -> 1 as steps of process 0.
  void send_writes(int n) {
    for (int i = 0; i < n; ++i) {
      mesh.post(0, 0, [](net::Context& ctx) {
        ctx.send(1, wire::BlWriteMsg{1, 5, "payload"});
      });
    }
  }
  netio::Mesh mesh;
  std::vector<EchoProcess*> procs;
};

TEST(MeshTest, PingPongQuiescesWithExactAccounting) {
  netio::MeshOptions opts;
  opts.seed = 7;
  EchoMesh m(opts);
  m.send_writes(20);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  EXPECT_EQ(m.procs[1]->received.load(), 20u);
  EXPECT_EQ(m.procs[0]->received.load(), 20u) << "every write acked";
  const auto stats = m.mesh.stats();
  EXPECT_EQ(stats.messages_sent, 40u);
  EXPECT_EQ(stats.messages_delivered, 40u);
  EXPECT_GT(stats.bytes_sent, 0u);
  const auto t = m.mesh.transport();
  EXPECT_GE(t.connects, 1u);
  EXPECT_EQ(t.corrupt_frames, 0u);
  EXPECT_EQ(t.partial_timeouts, 0u);
}

TEST(MeshTest, HoldBuffersInTransitAndReleaseRedeliversFifo) {
  netio::MeshOptions opts;
  opts.seed = 8;
  EchoMesh m(opts);
  m.mesh.hold(0, 1);
  m.send_writes(5);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)))
      << "held frames are in transit, not pending work";
  EXPECT_EQ(m.procs[1]->received.load(), 0u);
  m.mesh.release(0, 1);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  EXPECT_EQ(m.procs[1]->received.load(), 5u);
  EXPECT_EQ(m.procs[0]->received.load(), 5u) << "acks flowed after release";
}

TEST(MeshTest, CrashBlackholesAndDropsAreCounted) {
  netio::MeshOptions opts;
  opts.seed = 9;
  EchoMesh m(opts);
  m.send_writes(3);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  m.mesh.crash(1);
  EXPECT_TRUE(m.mesh.crashed(1));
  m.send_writes(4);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)))
      << "sends to a crashed node must not stall quiescence";
  EXPECT_EQ(m.procs[1]->received.load(), 3u) << "no delivery after crash";
  const auto stats = m.mesh.stats();
  EXPECT_GE(stats.messages_dropped, 4u);
}

TEST(MeshTest, CrashDiscardsHeldBacklog) {
  netio::MeshOptions opts;
  opts.seed = 10;
  EchoMesh m(opts);
  m.mesh.hold(0, 1);
  m.send_writes(6);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  m.mesh.crash(1);
  m.mesh.release(0, 1);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  EXPECT_EQ(m.procs[1]->received.load(), 0u)
      << "a crashed node's backlog must never be delivered";
}

TEST(MeshTest, SeededLossIsDeterministicAndCounted) {
  auto run = [](std::uint64_t seed) {
    netio::MeshOptions opts;
    opts.seed = 3;
    net::LinkFaults lf;
    lf.loss.p = 0.5;
    lf.seed = seed;
    EchoMesh m(opts, &lf);
    // One-directional traffic so the sampling order is a deterministic
    // function of the (seeded) channel stream, not of thread interleaving.
    for (int i = 0; i < 40; ++i) {
      m.mesh.post(0, 0, [](net::Context& ctx) {
        ctx.send(1, wire::FwWriteMsg{7, "fw"});
      });
    }
    if (!m.mesh.run_quiescent(std::chrono::milliseconds(10'000))) {
      ADD_FAILURE() << "mesh failed to quiesce";
    }
    return m.mesh.stats();
  };
  const auto a = run(41);
  EXPECT_GT(a.messages_lost, 0u);
  EXPECT_LT(a.messages_lost, 40u);
  EXPECT_EQ(a.messages_delivered + a.messages_lost, a.messages_sent);
  const auto b = run(41);
  EXPECT_EQ(a.messages_lost, b.messages_lost)
      << "same fault seed, same channel stream, same casualties";
  const auto c = run(1441);
  EXPECT_NE(a.messages_lost, c.messages_lost);
}

TEST(MeshTest, DuplicationAndReorderDeliverCorrectCounts) {
  netio::MeshOptions opts;
  opts.seed = 4;
  net::LinkFaults lf;
  lf.duplicate.p = 0.5;
  lf.reorder.p = 0.4;
  lf.reorder_delay = 2'000'000;  // 2ms: clearly observable deferral
  lf.seed = 5;
  EchoMesh m(opts, &lf);
  for (int i = 0; i < 30; ++i) {
    m.mesh.post(0, 0, [](net::Context& ctx) {
      ctx.send(1, wire::FwWriteMsg{7, "fw"});
    });
  }
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  const auto stats = m.mesh.stats();
  EXPECT_GT(stats.messages_duplicated, 0u);
  EXPECT_GT(stats.messages_reordered, 0u);
  EXPECT_EQ(stats.messages_delivered, 30u + stats.messages_duplicated);
  EXPECT_EQ(m.procs[1]->received.load(), stats.messages_delivered);
}

TEST(MeshTest, GrayNodeIsSlowButDeliversEverything) {
  netio::MeshOptions opts;
  opts.seed = 11;
  EchoMesh m(opts);
  m.mesh.set_gray(1, 2'000'000);  // 2ms per delivered frame
  m.send_writes(5);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  const auto wall =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_EQ(m.procs[1]->received.load(), 5u);
  EXPECT_EQ(m.procs[0]->received.load(), 5u);
  EXPECT_GE(wall, 8.0) << "5 gray deliveries at 2ms each must show up";
  m.mesh.set_gray(1, 0);  // clears
  m.send_writes(1);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  EXPECT_EQ(m.procs[1]->received.load(), 6u);
}

TEST(MeshTest, SeveredConnectionReestablishesWithBackoff) {
  netio::MeshOptions opts;
  opts.seed = 12;
  opts.backoff.base_ns = 500'000;  // keep the retry schedule test-fast
  EchoMesh m(opts);
  m.send_writes(3);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)));
  const auto before = m.mesh.transport();
  m.mesh.sever(0, 1);
  m.send_writes(3);
  ASSERT_TRUE(m.mesh.run_quiescent(std::chrono::milliseconds(10'000)))
      << "traffic across a severed link must force a reconnect, not a stall";
  EXPECT_EQ(m.procs[1]->received.load(), 6u);
  const auto after = m.mesh.transport();
  EXPECT_GT(after.connects, before.connects) << "a fresh handshake happened";
}

// ---------------------------------------------------------------------------
// Backend-level degradation: bounded runs report timed_out(), never hang.
// ---------------------------------------------------------------------------

TEST(NetBackendTest, BoundedRunDegradesToTimedOut) {
  harness::BackendConfig cfg;
  cfg.seed = 1;
  cfg.max_wall_time_ms = 300;
  auto backend = harness::make_backend(harness::BackendKind::Net, cfg);
  backend->add_process(std::make_unique<EchoProcess>());
  backend->add_process(std::make_unique<EchoProcess>());
  backend->start();
  // A step scheduled 30 virtual seconds out: the mesh cannot quiesce before
  // the wall deadline, so run() must give up and report, not block.
  backend->post(30'000'000'000ULL, 0, [](net::Context&) {});
  const auto t0 = std::chrono::steady_clock::now();
  backend->run();
  const auto wall = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_TRUE(backend->timed_out());
  EXPECT_LT(wall, 10'000.0) << "must end well before the 30s timer";
}

// The acceptance-criterion shape: a sweep cell whose fault plan stalls its
// quorums on the net backend ends as a liveness verdict under the bounded
// deadline instead of hanging the sweep.
TEST(NetBackendTest, OverloadSweepCellDegradesToLivenessVerdict) {
  harness::Scenario s;
  s.protocol = harness::Protocol::Safe;
  s.backend = harness::BackendKind::Net;
  s.max_wall_ms = 1'500;  // keep the test fast; the stall shows immediately
  // t+1 = 3 crashes early in the run: quorums of S - t are gone for good.
  for (const int obj : {0, 2, 4}) {
    harness::FaultEvent crash;
    crash.kind = harness::FaultEvent::Kind::Crash;
    crash.object = obj;
    crash.at = 5'000;
    s.events.push_back(crash);
  }
  const harness::CellVerdict v = harness::SweepEngine::run_cell(s);
  EXPECT_FALSE(v.ok);
  EXPECT_GT(v.ops_stuck, 0);
  EXPECT_NE(v.first_violation.find("liveness"), std::string::npos)
      << v.first_violation;
}

}  // namespace
}  // namespace rr
