// Gray-failure fault library: the new primitives -- seeded loss /
// duplication / reorder, asymmetric partitions, flapping channels,
// slow-but-alive gray processes, clock skew -- behave identically enough
// across the backends to share one scenario format: same NetStats
// accounting, same Scenario encoding, same verdict logic. Crash, hold and
// link faults are one net::ChannelProxy on every backend; the parity
// probes below pin its rules through harness::Backend. Clock skew is
// DES-only (wall clocks don't lie) and the Backend contract says so.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/deployment.hpp"
#include "harness/primitives.hpp"
#include "harness/protocol.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"

namespace rr::harness {
namespace {

Scenario base_scenario(BackendKind backend) {
  Scenario s;
  s.protocol = Protocol::Regular;
  s.backend = backend;
  s.run_seed = 5;
  s.writes = 5;
  s.reads_per_reader = 4;
  s.name = "prim";
  if (backend != BackendKind::Sim) {
    s.max_wall_ms = 10'000;  // stalls degrade to a verdict, never a hang
  }
  return s;
}

FaultEvent link_event(FaultEvent::Kind kind, double p) {
  FaultEvent ev;
  ev.kind = kind;
  ev.rate = p;
  return ev;
}

class FaultPrimitivesOnBothBackends
    : public ::testing::TestWithParam<BackendKind> {};

// Loss: messages vanish at send time, are counted, and (since reliable
// channels are part of the liveness argument, not safety) any completed
// operations still check out.
TEST_P(FaultPrimitivesOnBothBackends, LossIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  s.events.push_back(link_event(FaultEvent::Kind::Loss, 0.25));
  s.expect_ok = false;  // dropped requests may legitimately stall quorums
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_lost, 0u);
  EXPECT_EQ(v.violations, 0) << v.first_violation;  // safety holds regardless
}

TEST_P(FaultPrimitivesOnBothBackends, DuplicationIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  s.events.push_back(link_event(FaultEvent::Kind::Duplicate, 0.4));
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_duplicated, 0u);
  EXPECT_TRUE(v.ok) << v.first_violation;  // idempotent acks: dup is benign
}

TEST_P(FaultPrimitivesOnBothBackends, ReorderIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev = link_event(FaultEvent::Kind::Reorder, 0.5);
  ev.period = 30'000;  // extra delay >> the base delay band
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_reordered, 0u);
  EXPECT_TRUE(v.ok) << v.first_violation;  // reorder is legal in the model
}

// Asymmetric partition: one direction of every channel into (or out of) an
// object is held for a window, then released; within the budget t the run
// must stay wait-free on both substrates.
TEST_P(FaultPrimitivesOnBothBackends, AsymmetricPartitionWithinBudgetIsOk) {
  for (const auto kind :
       {FaultEvent::Kind::PartitionIn, FaultEvent::Kind::PartitionOut}) {
    Scenario s = base_scenario(GetParam());
    FaultEvent ev;
    ev.kind = kind;
    ev.held = {1};
    ev.at = 20'000;
    ev.duration = 60'000;
    s.events.push_back(ev);
    const CellVerdict v = SweepEngine::run_cell(s);
    EXPECT_TRUE(v.ok) << emit_fault(ev) << ": " << v.first_violation;
  }
}

TEST_P(FaultPrimitivesOnBothBackends, FlappingChannelWithinBudgetIsOk) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Flap;
  ev.held = {0};
  ev.at = 10'000;
  ev.duration = 150'000;
  ev.period = 25'000;
  ev.rate = 0.4;
  ev.jitter = 3'000;
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_TRUE(v.ok) << v.first_violation;
}

TEST_P(FaultPrimitivesOnBothBackends, GrayProcessStaysCorrectJustSlow) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Gray;
  ev.object = 2;
  ev.rate = 6.0;
  ev.at = 5'000;
  ev.duration = 200'000;
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_TRUE(v.ok) << v.first_violation;
}

// ---------------------------------------------------------------------------
// Parity probes: the proxy's rules, driven through the Backend interface.
// ---------------------------------------------------------------------------

/// Takes every delivery and sends nothing.
class Quiet final : public net::Process {
 public:
  void on_message(net::Context&, ProcessId, const wire::Message&) override {}
};

std::unique_ptr<Backend> probe_backend(BackendKind kind, int n,
                                       const net::LinkFaults& lf) {
  BackendConfig cfg;
  cfg.seed = 3;
  cfg.max_wall_time_ms = 20'000;  // a stall becomes timed_out(), not a hang
  auto b = make_backend(kind, cfg);
  for (int i = 0; i < n; ++i) b->add_process(std::make_unique<Quiet>());
  b->set_link_faults(lf);
  return b;
}

/// A step that sends `count` messages to `to` (posted to the sender).
net::PostFn send_burst(ProcessId to, int count) {
  return [to, count](net::Context& ctx) {
    for (int i = 0; i < count; ++i) {
      ctx.send(to, wire::WAckMsg{static_cast<Ts>(i)});
    }
  };
}

// Every copy is accounted exactly once, whatever path it takes: lost,
// duplicated, reorder-deferred past its destination's crash, held and
// released late, or sent after the crash.
TEST_P(FaultPrimitivesOnBothBackends, EveryCopyIsAccountedOnce) {
  net::LinkFaults lf;
  lf.loss.p = 0.1;
  lf.duplicate.p = 0.3;
  lf.reorder.p = 0.5;
  lf.reorder_delay = 50'000'000;  // 50 ms: deferrals outlive the crash
  lf.seed = 17;
  auto b = probe_backend(GetParam(), 3, lf);
  Backend* raw = b.get();
  const ProcessId x = 0;
  const ProcessId y = 1;
  const ProcessId z = 2;
  b->hold(x, z);
  b->start();
  const Time t0 = b->now();
  for (int i = 0; i < 400; ++i) {
    b->post(t0 + static_cast<Time>(i) * 25'000, x,
            send_burst(i % 2 == 0 ? y : z, 1));
  }
  b->post(t0 + 5'000'000, x, [raw, y](net::Context&) { raw->crash(y); });
  b->post(t0 + 20'000'000, x,
          [raw, x, z](net::Context&) { raw->release(x, z); });
  b->run();
  ASSERT_FALSE(b->timed_out());
  const net::NetStats st = b->stats();
  EXPECT_EQ(st.messages_sent, 400u);
  EXPECT_GT(st.messages_lost, 0u);
  EXPECT_GT(st.messages_duplicated, 0u);
  EXPECT_GT(st.messages_reordered, 0u);
  EXPECT_GT(st.messages_dropped, 0u);
  EXPECT_EQ(st.messages_sent + st.messages_duplicated,
            st.messages_delivered + st.messages_dropped + st.messages_lost);
}

// Draws apply to every send, whatever the endpoints' crash state; the
// copies die at the delivery gate.
TEST_P(FaultPrimitivesOnBothBackends, DuplicatesToACrashedProcessAreDropped) {
  net::LinkFaults lf;
  lf.duplicate.p = 0.5;
  lf.seed = 23;
  auto b = probe_backend(GetParam(), 2, lf);
  b->crash(1);
  b->start();
  b->post(0, 0, send_burst(1, 1000));
  b->run();
  ASSERT_FALSE(b->timed_out());
  const net::NetStats st = b->stats();
  EXPECT_EQ(st.messages_sent, 1000u);
  EXPECT_GT(st.messages_duplicated, 0u);
  EXPECT_EQ(st.messages_dropped, st.messages_sent + st.messages_duplicated);
  EXPECT_EQ(st.messages_delivered, 0u);
}

// The hold point is the sender, before the reorder draw, and release
// re-injects without one.
TEST_P(FaultPrimitivesOnBothBackends, HeldCopiesAreNeverReordered) {
  net::LinkFaults lf;
  lf.reorder.p = 1.0;
  lf.seed = 29;
  auto b = probe_backend(GetParam(), 2, lf);
  b->hold(0, 1);
  b->start();
  b->post(0, 0, send_burst(1, 1000));
  b->run();
  EXPECT_EQ(b->stats().messages_delivered, 0u) << "held copies are in transit";
  b->release(0, 1);
  b->run();
  ASSERT_FALSE(b->timed_out());
  const net::NetStats st = b->stats();
  EXPECT_EQ(st.messages_reordered, 0u);
  EXPECT_EQ(st.messages_delivered, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultPrimitivesOnBothBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads,
                                           BackendKind::Net),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// DES-only guarantees.
// ---------------------------------------------------------------------------

// Every new primitive composed at once stays bit-deterministic: same
// scenario, same fingerprint, across repeated runs.
TEST(FaultPrimitives, DesRunsWithAllPrimitivesAreBitDeterministic) {
  Scenario s = base_scenario(BackendKind::Sim);
  s.events.push_back(link_event(FaultEvent::Kind::Loss, 0.05));
  s.events.push_back(link_event(FaultEvent::Kind::Duplicate, 0.1));
  {
    FaultEvent ev = link_event(FaultEvent::Kind::Reorder, 0.3);
    ev.period = 15'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Gray;
    ev.object = 1;
    ev.rate = 3.0;
    ev.at = 10'000;
    ev.duration = 100'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Skew;
    ev.object = 3;
    ev.skew = -4'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Flap;
    ev.held = {0};
    ev.at = 30'000;
    ev.duration = 90'000;
    ev.period = 20'000;
    ev.rate = 0.5;
    ev.jitter = 1'000;
    s.events.push_back(ev);
  }
  s.expect_ok = false;  // loss may stall ops; determinism is what's pinned
  const CellVerdict a = SweepEngine::run_cell(s);
  const CellVerdict b = SweepEngine::run_cell(s);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, 0u);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.net.messages_lost, b.net.messages_lost);
  EXPECT_EQ(a.net.messages_duplicated, b.net.messages_duplicated);
  EXPECT_EQ(a.net.messages_reordered, b.net.messages_reordered);
}

// Clock skew shifts a process's Context::now() on the DES -- the global
// event clock is untouched, only the local reading lies -- and the threads
// backend honestly refuses (wall clocks can't be skewed per thread).
TEST(FaultPrimitives, ClockSkewIsDesOnly) {
  DeploymentOptions opts;
  opts.protocol = Protocol::Regular;
  opts.backend = BackendKind::Sim;
  opts.res = protocol_traits(Protocol::Regular).resilience_for(2, 1, 2);
  opts.seed = 77;
  {
    Deployment d(opts);
    const ProcessId skewed = d.object_pid(0);
    const ProcessId honest = d.object_pid(1);
    EXPECT_TRUE(d.backend().set_clock_skew(skewed, 50'000));
    Time at_skewed = 0;
    Time at_honest = 0;
    d.backend().post(1'000, skewed,
                     [&at_skewed](net::Context& ctx) { at_skewed = ctx.now(); });
    d.backend().post(1'000, honest,
                     [&at_honest](net::Context& ctx) { at_honest = ctx.now(); });
    d.run();
    EXPECT_EQ(at_honest, 1'000u);
    EXPECT_EQ(at_skewed, 51'000u);  // same instant, lying local clock
  }
  opts.backend = BackendKind::Threads;
  {
    Deployment d(opts);
    EXPECT_FALSE(d.backend().set_clock_skew(d.object_pid(0), 9'000));
  }

  // A skew-bearing scenario is still a passing, deterministic cell.
  Scenario with_skew = base_scenario(BackendKind::Sim);
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Skew;
  ev.object = 0;
  ev.skew = 50'000;
  with_skew.events.push_back(ev);
  const CellVerdict a = SweepEngine::run_cell(with_skew);
  EXPECT_TRUE(a.ok) << a.first_violation;  // skew is legal: safety holds
  EXPECT_EQ(a.fingerprint, SweepEngine::run_cell(with_skew).fingerprint);
}

// `objs=all` is the empty object list. The link faults read it as every
// channel; hold, partition and flap must read it as every object, exactly
// like the line that lists them all, and it still emits as `objs=all`.
TEST(FaultPrimitives, ObjsAllReachesEveryObject) {
  const auto run = [](const std::string& fault) {
    const auto parsed = parse_scenario(
        "scenario safe des name=all\nbudget t=1 b=1 readers=1\n"
        "runseed 7\n" +
        fault + "\n");
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return parsed.scenario;
  };
  const std::uint64_t no_fault =
      SweepEngine::run_cell(run("")).fingerprint;
  for (const std::string shape :
       {"fault hold objs=@ at=0 dur=200000",
        "fault partition objs=@ dir=in at=0 dur=200000",
        "fault flap objs=@ at=0 dur=200000 period=20000 duty=0.5"}) {
    const auto line = [&shape](const std::string& objs) {
      std::string l = shape;
      return l.replace(l.find('@'), 1, objs);
    };
    const Scenario all = run(line("all"));
    EXPECT_NE(emit_scenario(all).find("objs=all"), std::string::npos);
    const std::uint64_t fp_all = SweepEngine::run_cell(all).fingerprint;
    EXPECT_EQ(fp_all, SweepEngine::run_cell(run(line("0,1,2,3"))).fingerprint)
        << shape;
    EXPECT_NE(fp_all, no_fault) << shape;
  }
}

// Every timed edge is absolute on the backend clock, counted from the clock
// at injection: on threads and net that clock has run for a while before a
// cell's faults go in, and an edge before it would fire at once.
TEST(FaultPrimitives, EdgesStartAtTheBackendClock) {
  constexpr Time kNow = 536'000;
  int rows = 0;
  for (const Primitive& p : primitives()) {
    if (p.edges == nullptr) continue;
    ++rows;
    FaultEvent ev;
    ev.kind = p.kind;
    if (p.client) ev.role = Role::Writer;
    ev.held = {0};
    ev.at = 500;
    ev.duration = 2'000;
    ev = with_defaults(ev);
    const FaultEdges edges = p.edges(ev, kNow, /*seed=*/7);
    ASSERT_FALSE(edges.empty()) << p.label;
    for (const auto& [at, on] : edges) {
      EXPECT_GE(at, kNow + ev.at) << p.label << (on ? " on" : " off");
    }
  }
  EXPECT_GE(rows, 6);  // crash, hold, both partitions, flap, both grays
}

// A threads cell whose fault plan stalls its quorums degrades to a liveness
// verdict under a bounded deadline instead of aborting the process.
TEST(FaultPrimitives, ThreadsOverloadDegradesToLivenessVerdict) {
  Scenario s;
  s.protocol = Protocol::Safe;
  s.backend = BackendKind::Threads;
  s.max_wall_ms = 1'500;  // keep the test fast; the stall shows immediately
  // t+1 = 3 crashes early in the run: quorums of S - t are gone for good.
  for (const int obj : {0, 2, 4}) {
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::Crash;
    crash.object = obj;
    crash.at = 5'000;
    s.events.push_back(crash);
  }
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_FALSE(v.ok);
  EXPECT_GT(v.ops_stuck, 0);
  EXPECT_NE(v.first_violation.find("liveness"), std::string::npos)
      << v.first_violation;
}

}  // namespace
}  // namespace rr::harness
