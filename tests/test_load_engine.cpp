// Open-loop load engine + windowed streaming checker invariants:
//
//   - windowing is invisible: every committed scenario file produces a
//     bit-identical verdict and DES fingerprint with the window on and off;
//   - retirement never outruns verifiability: an incomplete op (or a read
//     naming a not-yet-invoked write) pins the window;
//   - the streaming verdict agrees with the batch checkers on randomized
//     adversarial histories, with tiny windows forcing aggressive eviction;
//   - the steady-state client loop allocates nothing (counting global
//     operator new in this binary);
//   - open-loop DES cells are deterministic and keep checker residency
//     O(window), and the arrival shapes match their documented envelopes.
#include "harness/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "checker/history.hpp"
#include "common/rng.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"

// ---------------------------------------------------------------------------
// Counting global operator new. This override is visible to the whole test
// binary (each tests/*.cpp builds its own executable), so the zero-alloc pin
// below measures the real allocation behavior of the hot paths, not a mock.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Replacement allocation functions legitimately pair malloc with free; GCC
// cannot know that and flags the pairing as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rr::harness {
namespace {

using checker::OpRecord;
using Kind = OpRecord::Kind;

std::vector<std::string> scn_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Windowing is invisible. Every committed DES scenario -- library and
// shrinker fixtures, passing and expected-failing alike -- must produce the
// same verdict, the same first violation and the same fingerprint with the
// streaming checker retiring ops online as with the keep-everything batch
// checker, while actually retiring a nonzero prefix somewhere.
// ---------------------------------------------------------------------------
TEST(WindowedChecker, VerdictsAndFingerprintsMatchBatchOnCommittedScenarios) {
  std::vector<std::string> files =
      scn_files(std::string(RR_SOURCE_DIR) + "/scenarios");
  for (auto& f :
       scn_files(std::string(RR_SOURCE_DIR) + "/tests/fixtures/scenarios")) {
    files.push_back(std::move(f));
  }
  ASSERT_FALSE(files.empty());
  std::uint64_t total_retired = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto parsed = load_scenario_file(path);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    if (parsed.scenario.backend != BackendKind::Sim) continue;
    Scenario batch = parsed.scenario;
    batch.checker_window = 0;
    Scenario windowed = parsed.scenario;
    windowed.checker_window = 8;
    const CellVerdict vb = SweepEngine::run_cell(batch);
    const CellVerdict vw = SweepEngine::run_cell(windowed);
    EXPECT_EQ(vb.ok, vw.ok);
    EXPECT_EQ(vb.violations, vw.violations);
    EXPECT_EQ(vb.first_violation, vw.first_violation);
    EXPECT_EQ(vb.fingerprint, vw.fingerprint);
    EXPECT_EQ(vb.ops_complete, vw.ops_complete);
    EXPECT_EQ(vb.ops_stuck, vw.ops_stuck);
    EXPECT_EQ(vb.hist_retired, 0u);
    total_retired += vw.hist_retired;
  }
  EXPECT_GT(total_retired, 0u);
}

// ---------------------------------------------------------------------------
// Retirement never outruns verifiability: an op that is still incomplete
// pins the frontier, so nothing invoked at-or-after it can retire, no matter
// how far past the window the residual grows.
// ---------------------------------------------------------------------------
TEST(WindowedChecker, IncompleteOpPinsRetirement) {
  checker::HistoryLog log;
  log.enable_window(4, checker::Property::Regular);
  const auto w = log.record_invocation(Kind::Write, -1, 10, "v1");
  Time t = 20;
  for (int i = 0; i < 64; ++i) {
    const auto r = log.record_invocation(Kind::Read, 0, t);
    log.record_read_response(r, t + 5, TsVal{});  // initial value: legal
    t += 10;
  }
  auto ws = log.window_stats();
  EXPECT_EQ(ws.retired, 0u) << "retired past an incomplete op";
  EXPECT_EQ(ws.live, 65u);
  EXPECT_TRUE(log.final_check().ok());

  // Completing the pinned write (plus one later event to advance the
  // frontier past its response) unblocks retirement.
  log.record_write_response(w, t, 1, "v1");
  const auto r = log.record_invocation(Kind::Read, 0, t + 1);
  log.record_read_response(r, t + 6, TsVal{1, "v1"});
  ws = log.window_stats();
  EXPECT_GT(ws.retired, 0u);
  EXPECT_TRUE(log.final_check().ok());
}

// A read naming a write that has not been invoked yet (a Byzantine forgery)
// is unverifiable while the run lives -- the writer might still catch up --
// so it must stay resident, and the final pass must then convict it.
TEST(WindowedChecker, ForgedFutureReadIsHeldThenConvicted) {
  checker::HistoryLog log;
  log.enable_window(2, checker::Property::Regular);
  const auto w = log.record_invocation(Kind::Write, -1, 10, "v1");
  log.record_write_response(w, 20, 1, "v1");
  const auto forged = log.record_invocation(Kind::Read, 0, 30);
  log.record_read_response(forged, 40, TsVal{3, "v3"});
  Time t = 50;
  for (int i = 0; i < 32; ++i) {
    const auto r = log.record_invocation(Kind::Read, 1, t);
    log.record_read_response(r, t + 5, TsVal{1, "v1"});
    t += 10;
  }
  const auto ws = log.window_stats();
  EXPECT_LE(ws.retired, 1u) << "retired an unverifiable forged read";
  EXPECT_GE(ws.live, 33u);
  const auto report = log.final_check();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("regularity(1)"), std::string::npos)
      << report.violations[0];
}

// ---------------------------------------------------------------------------
// Randomized adversarial histories: replay the identical op stream into a
// windowed log (window 4: maximal eviction pressure) and a batch log, and
// the streaming verdict must agree with the batch checkers -- same ok bit,
// same violation and checked-op counts, same fingerprint. (Message texts may
// differ only in the documented below-floor case, hence counts, not strings.)
// ---------------------------------------------------------------------------
TEST(WindowedChecker, RandomHistoriesAgreeWithBatchCheckers) {
  struct GenOp {
    Kind kind;
    int client;
    Time invoke;
    Time respond;
    Ts ts;
    Value val;
  };
  for (const auto property :
       {checker::Property::Safe, checker::Property::Regular}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(static_cast<int>(property) * 1000 + seed);
      Rng rng(mix64(seed ^ 0xfeedULL));
      std::vector<GenOp> gen;
      Ts next_ts = 0;
      Time writer_free = 0;
      Time reader_free[3] = {0, 0, 0};
      for (int i = 0; i < 200; ++i) {
        if (rng.chance(0.3)) {
          const Time inv = writer_free + rng.uniform(0, 20);
          const Time rsp = inv + 1 + rng.uniform(0, 30);
          ++next_ts;
          gen.push_back(
              {Kind::Write, -1, inv, rsp, next_ts, value_for(next_ts)});
          writer_free = rsp + 1;
        } else {
          const int c = static_cast<int>(rng.index(3));
          const Time inv = reader_free[c] + rng.uniform(0, 20);
          const Time rsp = inv + 1 + rng.uniform(0, 30);
          // Mostly plausible timestamps; occasionally stale, forged-future
          // or with a corrupted payload.
          Ts ts = next_ts == 0 ? 0 : rng.uniform(0, next_ts);
          if (rng.chance(0.05)) ts = next_ts + 1 + rng.uniform(0, 2);
          Value val = ts == 0 ? Value{} : value_for(ts);
          if (rng.chance(0.08)) val = "junk";
          gen.push_back({Kind::Read, c, inv, rsp, ts, val});
          reader_free[c] = rsp + 1;
        }
      }
      // Interleave as a timeline: invocations in invocation order (this is
      // the log order), each response applied at its own time.
      struct Event {
        Time at;
        bool is_response;
        std::size_t op;
      };
      std::vector<Event> events;
      for (std::size_t i = 0; i < gen.size(); ++i) {
        events.push_back({gen[i].invoke, false, i});
        events.push_back({gen[i].respond, true, i});
      }
      std::stable_sort(events.begin(), events.end(),
                       [](const Event& a, const Event& b) {
                         if (a.at != b.at) return a.at < b.at;
                         return a.is_response < b.is_response;
                       });
      checker::HistoryLog windowed;
      windowed.enable_window(4, property);
      checker::HistoryLog batch;
      std::vector<std::size_t> handles_w(gen.size()), handles_b(gen.size());
      for (const auto& ev : events) {
        const GenOp& op = gen[ev.op];
        if (!ev.is_response) {
          handles_w[ev.op] = windowed.record_invocation(
              op.kind, op.client, op.invoke,
              op.kind == Kind::Write ? op.val : Value{});
          handles_b[ev.op] = batch.record_invocation(
              op.kind, op.client, op.invoke,
              op.kind == Kind::Write ? op.val : Value{});
        } else if (op.kind == Kind::Write) {
          windowed.record_write_response(handles_w[ev.op], op.respond, op.ts,
                                         op.val);
          batch.record_write_response(handles_b[ev.op], op.respond, op.ts,
                                      op.val);
        } else {
          windowed.record_read_response(handles_w[ev.op], op.respond,
                                        TsVal{op.ts, op.val});
          batch.record_read_response(handles_b[ev.op], op.respond,
                                     TsVal{op.ts, op.val});
        }
      }
      const auto streamed = windowed.final_check();
      const auto snap = batch.snapshot();
      const auto wf = checker::check_well_formed(snap);
      const auto prop = property == checker::Property::Safe
                            ? checker::check_safety(snap)
                            : checker::check_regularity(snap);
      EXPECT_EQ(streamed.ok(), wf.ok() && prop.ok());
      EXPECT_EQ(streamed.violations.size(),
                wf.violations.size() + prop.violations.size());
      EXPECT_EQ(streamed.reads_checked, prop.reads_checked);
      EXPECT_EQ(streamed.writes_checked, prop.writes_checked);
      EXPECT_EQ(windowed.history_fingerprint(), batch.history_fingerprint());
      EXPECT_EQ(windowed.size(), batch.size());
      EXPECT_GT(windowed.window_stats().retired, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The steady-state client loop allocates nothing: arrival sampling, station
// FIFO traffic and latency recording -- the per-op bookkeeping the engine
// performs a million times -- must not touch the heap after construction.
// ---------------------------------------------------------------------------
TEST(LoadEngine, SteadyStateClientPathsDoNotAllocate) {
  OpenLoopOptions ol;
  ol.arrival = ArrivalKind::Bursty;
  ol.clients = 1'000'000;
  ol.mean_think = 1'000'000'000;
  ol.horizon = 10'000'000;
  ArrivalSampler sampler(ol, 42);
  StationRing ring(256);
  LatencyRecorder sojourn;
  // Warm-up: first touches may lazily allocate (none should, but the pin is
  // about the steady state).
  Time now = 0;
  now += sampler.next(now);
  (void)ring.push(now, 1);
  Time at = 0;
  std::uint32_t client = 0;
  ring.pop(at, client);
  sojourn.record(17);

  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) {
    now += sampler.next(now);
    (void)ring.push(now, static_cast<std::uint32_t>(i));
    if (ring.size() > 128) ring.pop(at, client);
    sojourn.record(now > at ? now - at : 1);
  }
  while (!ring.empty()) ring.pop(at, client);
  const std::uint64_t after = g_alloc_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state loop";
}

// StationRing is a bounded FIFO: refuses pushes at capacity, preserves
// arrival order, never grows.
TEST(LoadEngine, StationRingIsABoundedFifo) {
  StationRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push(100 + i, i));
  }
  EXPECT_FALSE(ring.push(999, 99)) << "push past capacity must shed";
  EXPECT_EQ(ring.size(), 4u);
  Time at = 0;
  std::uint32_t client = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ring.pop(at, client);
    EXPECT_EQ(at, 100 + i);
    EXPECT_EQ(client, i);
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// Open-loop DES cells: bit-deterministic across runs, identical fingerprint
// with the window on and off, and checker residency O(window) -- the peak
// stays within window + in-flight slack while the retired count covers
// nearly the whole run.
// ---------------------------------------------------------------------------
TEST(LoadEngine, OpenLoopDesCellIsDeterministicAndBounded) {
  Scenario s;
  s.protocol = Protocol::Safe;
  s.backend = BackendKind::Sim;
  s.run_seed = 7;
  s.shards = 2;
  s.arrival = ArrivalKind::Poisson;
  s.clients = 2'000;
  s.think = 10'000'000;
  s.horizon = 1'500'000;
  s.write_fraction = 0.2;
  s.checker_window = 32;
  const CellVerdict v1 = SweepEngine::run_cell(s);
  const CellVerdict v2 = SweepEngine::run_cell(s);
  EXPECT_TRUE(v1.ok) << v1.first_violation;
  EXPECT_EQ(v1.ops_stuck, 0);
  EXPECT_GT(v1.ops_complete, 100);
  EXPECT_EQ(v1.fingerprint, v2.fingerprint);
  EXPECT_NE(v1.fingerprint, 0u);
  EXPECT_GT(v1.hist_retired, 0u);
  EXPECT_LE(v1.hist_peak_live, 32u + 64u)
      << "checker residency must stay O(window)";

  Scenario batch = s;
  batch.checker_window = 0;
  const CellVerdict v0 = SweepEngine::run_cell(batch);
  EXPECT_EQ(v0.ok, v1.ok);
  EXPECT_EQ(v0.fingerprint, v1.fingerprint);
  EXPECT_EQ(v0.ops_complete, v1.ops_complete);
  EXPECT_EQ(v0.hist_retired, 0u);
  EXPECT_GT(v0.hist_peak_live, v1.hist_peak_live)
      << "batch mode must retain everything";
}

// The open-loop engine also runs under chaos faults with the windowed
// checker: holds stall ops mid-flight (pinning retirement), yet the final
// verdict stays clean and matches the batch twin.
TEST(LoadEngine, OpenLoopSurvivesChaosWithWindowedChecker) {
  Scenario s;
  s.protocol = Protocol::Regular;
  s.backend = BackendKind::Sim;
  s.run_seed = 11;
  s.arrival = ArrivalKind::Bursty;
  s.clients = 1'000;
  s.think = 10'000'000;
  s.horizon = 1'000'000;
  s.checker_window = 24;
  FaultEvent hold;
  hold.kind = FaultEvent::Kind::Hold;
  hold.held = {0, 1};
  hold.at = 200'000;
  hold.duration = 150'000;
  s.events.push_back(hold);
  const CellVerdict vw = SweepEngine::run_cell(s);
  EXPECT_TRUE(vw.ok) << vw.first_violation;
  Scenario batch = s;
  batch.checker_window = 0;
  const CellVerdict vb = SweepEngine::run_cell(batch);
  EXPECT_EQ(vb.fingerprint, vw.fingerprint);
  EXPECT_EQ(vb.ok, vw.ok);
}

// ---------------------------------------------------------------------------
// Arrival shapes match their documented envelopes (docs/WORKLOADS.md).
// ---------------------------------------------------------------------------
TEST(LoadEngine, ArrivalShapesMatchTheirEnvelopes) {
  OpenLoopOptions ol;
  ol.clients = 2'000;
  ol.mean_think = 10'000'000;  // base rate 2e-4/ns -> mean gap 5000ns
  ol.horizon = 10'000'000;

  {  // Poisson: thinning accepts everything; empirical mean ~= think/clients.
    ol.arrival = ArrivalKind::Poisson;
    ArrivalSampler sampler(ol, 5);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(123), 1.0);
    Time now = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) now += sampler.next(now);
    const double mean = static_cast<double>(now) / n;
    EXPECT_NEAR(mean, 5'000.0, 5'000.0 * 0.15);
  }
  {  // Bursty: accept 1 inside the duty window, 1/boost outside.
    ol.arrival = ArrivalKind::Bursty;
    ol.burst_period = 100'000;
    ol.burst_duty = 0.25;
    ol.burst_boost = 4.0;
    ArrivalSampler sampler(ol, 5);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(1'000), 1.0);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(90'000), 0.25);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(101'000), 1.0);  // periodic
  }
  {  // Diurnal: triangle ramp, low at the horizon's ends, peak at its middle.
    ol.arrival = ArrivalKind::Diurnal;
    ArrivalSampler sampler(ol, 5);
    const double lo = sampler.accept_probability(0);
    const double mid = sampler.accept_probability(ol.horizon / 2);
    const double hi_end = sampler.accept_probability(ol.horizon);
    EXPECT_DOUBLE_EQ(lo, 0.1);
    EXPECT_DOUBLE_EQ(mid, 1.0);
    EXPECT_DOUBLE_EQ(hi_end, 0.1);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(ol.horizon * 3), 0.1)
        << "past the horizon the tail stays at the floor";
  }
}

}  // namespace
}  // namespace rr::harness
