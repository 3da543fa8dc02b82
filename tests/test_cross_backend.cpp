// Cross-backend equivalence: the same seeded workloads, fault plans and
// sharded deployments run under the discrete-event simulator and under the
// threaded cluster, and every resulting history must pass the protocol's
// promised consistency check. This is what lets us trust the threaded
// backend "for free": the automata are shared, so a consistency bug in the
// thread path would be a transport bug, and the checker would catch it.
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "checker/history.hpp"
#include "harness/chaos.hpp"
#include "harness/deployment.hpp"
#include "harness/protocol.hpp"
#include "harness/shard.hpp"
#include "harness/workload.hpp"
#include "sim/world.hpp"
#include "wire/codec.hpp"

namespace rr::harness {
namespace {

DeploymentOptions base_options(Protocol p, BackendKind backend) {
  DeploymentOptions opts;
  opts.protocol = p;
  opts.backend = backend;
  opts.res = protocol_traits(p).resilience_for(2, 2, 2);
  opts.seed = 90210;
  opts.reserialize = true;  // prove automata survive the codec on both paths
  if (backend != BackendKind::Sim) opts.thread_jitter_us = 20;
  return opts;
}

checker::CheckReport run_and_check(DeploymentOptions opts) {
  Deployment d(std::move(opts));
  MixedWorkloadOptions w;
  w.writes = 8;
  w.reads_per_reader = 5;
  mixed_workload(d, w);
  d.run();
  return d.check();
}

class CrossBackendEveryProtocol
    : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CrossBackendEveryProtocol, SeededWorkloadPassesPromisedSemantics) {
  for (const auto& traits : protocol_registry()) {
    const auto report = run_and_check(base_options(traits.id, GetParam()));
    EXPECT_TRUE(report.ok())
        << traits.name << " on " << to_string(GetParam()) << ":\n"
        << report.summary();
    EXPECT_EQ(report.writes_checked, 8) << traits.name;
    // Safety constrains only reads concurrent with no write, so a fully
    // concurrent mixed workload may legitimately pin zero reads there;
    // regular/atomic protocols must check every completed read.
    if (traits.semantics != Semantics::Safe) {
      EXPECT_GT(report.reads_checked, 0) << traits.name;
    }
  }
}

TEST_P(CrossBackendEveryProtocol, FaultedGv06ProtocolsStayCorrect) {
  // The paper's own protocols under the full budget: b Byzantine forgers
  // plus crashes up to t, identical plan on both substrates.
  for (const Protocol p :
       {Protocol::Safe, Protocol::Regular, Protocol::RegularOptimized}) {
    auto opts = base_options(p, GetParam());
    opts.faults = FaultPlan::mixed(2, adversary::StrategyKind::Forger, 0);
    const auto report = run_and_check(std::move(opts));
    EXPECT_TRUE(report.ok())
        << to_string(p) << " forged, on " << to_string(GetParam()) << ":\n"
        << report.summary();
  }
  auto crash_opts = base_options(Protocol::Safe, GetParam());
  crash_opts.faults = FaultPlan::crash_only(2);
  const auto report = run_and_check(std::move(crash_opts));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_P(CrossBackendEveryProtocol, ChaosHoldsAndReleasesOnBothSubstrates) {
  auto opts = base_options(Protocol::Regular, GetParam());
  Deployment d(std::move(opts));
  ChaosOptions chaos;
  chaos.max_held = 2;
  chaos.seed = 7;
  inject_chaos(d, chaos);
  MixedWorkloadOptions w;
  w.writes = 10;
  w.reads_per_reader = 6;
  mixed_workload(d, w);
  d.run();
  const auto report = d.check();
  EXPECT_TRUE(report.ok())
      << "chaos on " << to_string(GetParam()) << ":\n" << report.summary();
}

TEST_P(CrossBackendEveryProtocol, ShardedDeploymentPassesPerShardChecks) {
  for (const Protocol p : {Protocol::Safe, Protocol::RegularOptimized}) {
    DeploymentOptions opts;
    opts.protocol = p;
    opts.backend = GetParam();
    opts.res = Resilience::optimal(1, 1, 2);
    opts.shards = 4;
    opts.seed = 4242;
    opts.reserialize = true;
    if (GetParam() != BackendKind::Sim) opts.thread_jitter_us = 10;
    Deployment d(std::move(opts));
    MixedWorkloadOptions w;
    w.writes = 6;
    w.reads_per_reader = 4;
    mixed_workload(d, w);
    d.run();
    for (int s = 0; s < d.shards(); ++s) {
      const auto report = d.check_shard(s);
      EXPECT_TRUE(report.ok()) << to_string(p) << " shard " << s << " on "
                               << to_string(GetParam()) << ":\n"
                               << report.summary();
      EXPECT_EQ(d.log(s).size(),
                static_cast<std::size_t>(6 + 2 * 4))
          << "every shard must serve its own full workload";
    }
    EXPECT_TRUE(d.check().ok());
  }
}

TEST_P(CrossBackendEveryProtocol, ShardedRegularCountsShippedHistorySlots) {
  // HIST_ACKs travel inside shard envelopes; the send accounting must look
  // inside them, or every sharded regular deployment reports 0 slots.
  DeploymentOptions opts;
  opts.protocol = Protocol::Regular;
  opts.backend = GetParam();
  opts.res = Resilience::optimal(1, 1, 2);
  opts.shards = 2;
  opts.seed = 4242;
  Deployment d(std::move(opts));
  MixedWorkloadOptions w;
  w.writes = 6;
  w.reads_per_reader = 4;
  mixed_workload(d, w);
  d.run();
  EXPECT_TRUE(d.check().ok());
  // Every HIST_ACK ships at least the object's top slot, and each of the
  // 2 x 2 x 4 reads collects acks from a quorum in each of its rounds.
  EXPECT_GE(d.stats().hist_slots_shipped, 2u * 2u * 4u * 3u)
      << "on " << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CrossBackendEveryProtocol,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads,
                                           BackendKind::Net),
                         [](const auto& info) {
                           const std::string name = to_string(info.param);
                           if (name == "des") return std::string("Des");
                           if (name == "net") return std::string("Net");
                           return std::string("Threads");
                         });

TEST(ShardLayoutTest, PidMappingRoundTrips) {
  const ShardLayout layout{4, 3, 5};
  EXPECT_EQ(layout.num_processes(), 4 * (1 + 3) + 5);
  for (int s = 0; s < layout.shards; ++s) {
    EXPECT_EQ(layout.shard_of(layout.writer(s)), s);
    EXPECT_EQ(layout.to_logical(layout.writer(s)), 0);
    EXPECT_EQ(layout.to_physical(s, 0), layout.writer(s));
    for (int j = 0; j < layout.readers; ++j) {
      const ProcessId pid = layout.reader(s, j);
      EXPECT_EQ(layout.shard_of(pid), s);
      EXPECT_EQ(layout.to_logical(pid), 1 + j);
      EXPECT_EQ(layout.to_physical(s, 1 + j), pid);
    }
  }
  for (int i = 0; i < layout.objects; ++i) {
    const ProcessId pid = layout.object(i);
    EXPECT_EQ(layout.shard_of(pid), -1);
    EXPECT_EQ(layout.to_logical(pid), 1 + layout.readers + i);
    for (int s = 0; s < layout.shards; ++s) {
      EXPECT_EQ(layout.to_physical(s, 1 + layout.readers + i), pid);
    }
  }
}

TEST(ShardedDeterminismTest, SameSeedSameTrafficOnTheDes) {
  auto run_once = [] {
    DeploymentOptions opts;
    opts.protocol = Protocol::RegularOptimized;
    opts.res = Resilience::optimal(1, 1, 2);
    opts.shards = 4;
    opts.seed = 99;
    Deployment d(std::move(opts));
    MixedWorkloadOptions w;
    w.writes = 6;
    w.reads_per_reader = 3;
    mixed_workload(d, w);
    d.run();
    return d.stats();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.messages_sent, 0u);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

// Sharded DES goldens: a K=4 deployment with a forging object and seeded
// duplication + reorder, pinned bit for bit, with the codec round trip on
// every delivery and without it. How the envelope carries its inner
// message in memory must not move the schedule, the traffic counts, the
// bytes on the wire or the recorded histories.
struct ShardedGolden {
  Protocol protocol;
  bool reserialize;
  std::uint64_t schedule_fp;
  std::uint64_t history_fp;
  std::uint64_t sent;
  std::uint64_t delivered;
  std::uint64_t bytes;
};

class ShardedGoldenTest : public ::testing::TestWithParam<ShardedGolden> {};

TEST_P(ShardedGoldenTest, ScheduleTrafficAndHistoriesArePinned) {
  const ShardedGolden& g = GetParam();
  DeploymentOptions opts;
  opts.protocol = g.protocol;
  opts.res = Resilience::optimal(1, 1, 2);
  opts.shards = 4;
  opts.seed = 4242;
  opts.faults = FaultPlan::mixed(1, adversary::StrategyKind::Forger, 0);
  opts.link_faults.duplicate.p = 0.05;
  opts.link_faults.reorder.p = 0.1;
  opts.link_faults.seed = 17;
  opts.reserialize = g.reserialize;
  opts.trace_fingerprint = true;
  Deployment d(std::move(opts));
  MixedWorkloadOptions w;
  w.writes = 8;
  w.reads_per_reader = 6;
  mixed_workload(d, w);
  d.run();
  std::uint64_t history_fp = checker::kHistoryFpSeed;
  for (int s = 0; s < d.shards(); ++s) {
    history_fp = checker::fp_fold(history_fp, d.log(s).history_fingerprint());
  }
  const auto stats = d.stats();
  EXPECT_GT(stats.messages_duplicated, 0u);
  EXPECT_GT(stats.messages_reordered, 0u);
  EXPECT_EQ(d.world().schedule_fingerprint(), g.schedule_fp);
  EXPECT_EQ(history_fp, g.history_fp);
  EXPECT_EQ(stats.messages_sent, g.sent);
  EXPECT_EQ(stats.messages_delivered, g.delivered);
  EXPECT_EQ(stats.bytes_sent, g.bytes);
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

INSTANTIATE_TEST_SUITE_P(
    K4ForgerDupReorder, ShardedGoldenTest,
    ::testing::Values(
        ShardedGolden{Protocol::Safe, false, 0x708ec7965a20313dULL,
                      0xcd1dd8374c2fef1fULL, 1261, 1320, 86333},
        ShardedGolden{Protocol::Safe, true, 0x708ec7965a20313dULL,
                      0xcd1dd8374c2fef1fULL, 1261, 1320, 86333},
        ShardedGolden{Protocol::Regular, false, 0x22ee30249bc48375ULL,
                      0x656f28d93ab0a200ULL, 1256, 1315, 105602},
        ShardedGolden{Protocol::Regular, true, 0x22ee30249bc48375ULL,
                      0x656f28d93ab0a200ULL, 1256, 1315, 105602}),
    [](const auto& info) {
      return std::string(info.param.protocol == Protocol::Safe ? "Safe"
                                                               : "Regular") +
             (info.param.reserialize ? "Reserialized" : "Plain");
    });

TEST(ShardEnvelopeGoldenTest, BytesArePinned) {
  // ShardMsg{reg 3, WAckMsg{ts 5}}: tag 0x18, the register, the inner
  // message's length, then the inner message's own encoding.
  const std::string bytes("\x18\x03\x00\x00\x00\x09\x00\x00\x00"
                          "\x03\x05\x00\x00\x00\x00\x00\x00\x00",
                          18);
  const auto msg = wire::decode(bytes);
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(std::holds_alternative<wire::ShardMsg>(*msg));
  EXPECT_EQ(std::get<wire::ShardMsg>(*msg).reg, 3u);
  EXPECT_EQ(wire::encode(*msg), bytes);
  EXPECT_EQ(wire::encoded_size(*msg), bytes.size());
}

TEST(ShardedWireTest, SendAccountingLooksInsideTheEnvelope) {
  wire::History h;
  h[3] = wire::HistEntry{TsVal{3, "v"}, std::nullopt};
  h[4] = wire::HistEntry{TsVal{4, "w"}, std::nullopt};
  const wire::HistReadAckMsg ack{1, 7, h, 3, 1};
  net::NetStats bare;
  bare.count_send(ack, 11);
  net::NetStats wrapped;
  wrapped.count_send(wire::ShardMsg{2, ack}, 22);
  EXPECT_EQ(bare.hist_slots_shipped, 2u);
  EXPECT_EQ(bare.hist_resyncs, 1u);
  EXPECT_EQ(wrapped.hist_slots_shipped, bare.hist_slots_shipped);
  EXPECT_EQ(wrapped.hist_resyncs, bare.hist_resyncs);
  EXPECT_EQ(wrapped.messages_sent, 1u);
  EXPECT_EQ(wrapped.bytes_sent, 22u);
  EXPECT_EQ(wrapped.messages_by_type[wire::message_index<wire::ShardMsg>()],
            1u);
  EXPECT_EQ(wrapped.bytes_by_type[wire::message_index<wire::ShardMsg>()],
            22u);
}

TEST(ShardedWireTest, EveryShardedMessageIsAShardEnvelope) {
  DeploymentOptions opts;
  opts.protocol = Protocol::Safe;
  opts.res = Resilience::optimal(1, 1, 1);
  opts.shards = 3;
  Deployment d(std::move(opts));
  MixedWorkloadOptions w;
  w.writes = 3;
  w.reads_per_reader = 2;
  mixed_workload(d, w);
  d.run();
  const auto stats = d.stats();
  constexpr std::size_t kShardIdx = 24;  // ShardMsg variant index
  static_assert(
      std::is_same_v<std::variant_alternative_t<kShardIdx, wire::Message>,
                     wire::ShardMsg>);
  EXPECT_EQ(stats.messages_by_type[kShardIdx], stats.messages_sent)
      << "sharded deployments must tag every wire message with its register";
}

TEST(ThreadBackendTest, SingleShardMatchesRobustRegisterSemantics) {
  // A tiny smoke of the protocol-agnostic invoke path on threads: write
  // then read through the harness (not the RobustRegister facade).
  DeploymentOptions opts;
  opts.protocol = Protocol::Safe;
  opts.backend = BackendKind::Threads;
  opts.res = Resilience::optimal(1, 1, 1);
  Deployment d(std::move(opts));
  d.logged_write(0, "hello");
  d.run();
  d.logged_read(0, 0);
  d.run();
  const auto ops = d.log().snapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[1].complete);
  EXPECT_EQ(ops[1].ts, 1u);
  EXPECT_EQ(ops[1].value, "hello");
  EXPECT_TRUE(d.check().ok());
}

}  // namespace
}  // namespace rr::harness
