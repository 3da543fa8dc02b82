// DES goldens for the Guerraoui-Vukolic safe and regular storage under every
// Byzantine strategy: the schedule, the traffic, the recorded history and
// the readers' own bookkeeping (their per-read Diag counters) are pinned
// bit for bit. How a tuple is represented in memory -- copied, shared,
// hashed -- must move none of them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "adversary/byzantine.hpp"
#include "checker/history.hpp"
#include "core/regular_reader.hpp"
#include "core/safe_reader.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "sim/world.hpp"

namespace rr::harness {
namespace {

using adversary::StrategyKind;
using checker::fp_fold;

struct Gv06Case {
  Protocol protocol;
  int t;
  int b;
  std::optional<StrategyKind> byzantine;  ///< on object 0; none = honest
};

struct Gv06Pins {
  std::uint64_t schedule_fp;
  std::uint64_t history_fp;
  std::uint64_t sent;
  std::uint64_t bytes;
  std::uint64_t hist_slots;
  std::uint64_t diag_fp;
};

std::uint64_t fold_diag(std::uint64_t h, const core::SafeReader::Diag& d) {
  h = fp_fold(h, static_cast<std::uint64_t>(d.round1_acks));
  h = fp_fold(h, static_cast<std::uint64_t>(d.round2_acks));
  h = fp_fold(h, static_cast<std::uint64_t>(d.conflicts_seen));
  h = fp_fold(h, static_cast<std::uint64_t>(d.candidates_added));
  return fp_fold(h, static_cast<std::uint64_t>(d.candidates_removed));
}

std::uint64_t fold_diag(std::uint64_t h, const core::RegularReader::Diag& d) {
  h = fp_fold(h, static_cast<std::uint64_t>(d.round1_acks));
  h = fp_fold(h, static_cast<std::uint64_t>(d.round2_acks));
  h = fp_fold(h, d.history_slots_received);
  h = fp_fold(h, d.resyncs);
  h = fp_fold(h, static_cast<std::uint64_t>(d.candidates_added));
  h = fp_fold(h, static_cast<std::uint64_t>(d.candidates_removed));
  return fp_fold(h, d.returned_from_cache ? 1 : 0);
}

/// A closed loop on the DES: one writer and two readers, each invoking its
/// next operation the moment the previous one returns. Every completed
/// read folds its reader's Diag, in completion order.
Gv06Pins run_case(const Gv06Case& c) {
  DeploymentOptions opts;
  opts.protocol = c.protocol;
  opts.res = Resilience::optimal(c.t, c.b, /*num_readers=*/2);
  opts.seed = 2006;
  opts.trace_fingerprint = true;
  if (c.byzantine) opts.faults.byzantine[0] = *c.byzantine;
  Deployment d(std::move(opts));

  constexpr int kWrites = 100;
  constexpr int kReadsPerReader = 100;
  std::uint64_t diag_fp = checker::kHistoryFpSeed;
  int writes_left = kWrites;
  std::function<void(Time)> next_write = [&](Time at) {
    if (writes_left-- == 0) return;
    d.logged_write(at, value_for(static_cast<Ts>(kWrites - writes_left)),
                   [&](const core::WriteResult& r) {
                     next_write(r.completed_at);
                   });
  };
  int reads_left[2] = {kReadsPerReader, kReadsPerReader};
  std::function<void(int, Time)> next_read = [&](int j, Time at) {
    if (reads_left[j]-- == 0) return;
    d.logged_read(at, j, [&, j](const core::ReadResult& r) {
      if (c.protocol == Protocol::Safe) {
        diag_fp = fold_diag(diag_fp, d.safe_reader(j).diag());
      } else {
        diag_fp = fold_diag(diag_fp, d.regular_reader(j).diag());
      }
      next_read(j, r.completed_at);
    });
  };
  next_write(0);
  next_read(0, 300);
  next_read(1, 700);
  d.run();

  EXPECT_EQ(d.log().recorded_total(),
            static_cast<std::size_t>(kWrites + 2 * kReadsPerReader));
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
  const auto stats = d.stats();
  return Gv06Pins{d.world().schedule_fingerprint(),
                  d.log().history_fingerprint(),
                  stats.messages_sent,
                  stats.bytes_sent,
                  stats.hist_slots_shipped,
                  diag_fp};
}

struct Gv06Golden {
  Gv06Case c;
  Gv06Pins pins;
};

std::string case_name(const Gv06Case& c) {
  std::string name = c.protocol == Protocol::Safe      ? "Safe"
                     : c.protocol == Protocol::Regular ? "Regular"
                                                       : "RegularOpt";
  name += "S" + std::to_string(2 * c.t + c.b + 1);
  name += c.byzantine ? adversary::to_string(*c.byzantine) : "honest";
  return name;
}

class Gv06GoldenTest : public ::testing::TestWithParam<Gv06Golden> {};

TEST_P(Gv06GoldenTest, ScheduleTrafficHistoryAndDiagArePinned) {
  const Gv06Golden& g = GetParam();
  const Gv06Pins got = run_case(g.c);
  EXPECT_EQ(got.schedule_fp, g.pins.schedule_fp);
  EXPECT_EQ(got.history_fp, g.pins.history_fp);
  EXPECT_EQ(got.sent, g.pins.sent);
  EXPECT_EQ(got.bytes, g.pins.bytes);
  EXPECT_EQ(got.hist_slots, g.pins.hist_slots);
  EXPECT_EQ(got.diag_fp, g.pins.diag_fp);
  if (::testing::Test::HasFailure()) {
    std::printf("  measured %s: {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                "ULL}\n",
                case_name(g.c).c_str(), got.schedule_fp, got.history_fp,
                got.sent, got.bytes, got.hist_slots, got.diag_fp);
  }
}

constexpr auto kSafe = Protocol::Safe;
constexpr auto kReg = Protocol::Regular;
constexpr auto kOpt = Protocol::RegularOptimized;
constexpr auto kSilent = StrategyKind::Silent;
constexpr auto kAmnesiac = StrategyKind::Amnesiac;
constexpr auto kForger = StrategyKind::Forger;
constexpr auto kAccuser = StrategyKind::Accuser;
constexpr auto kEquivocator = StrategyKind::Equivocator;
constexpr auto kStagger = StrategyKind::Stagger;
constexpr auto kCollude = StrategyKind::Collude;
constexpr auto kRandom = StrategyKind::Random;
constexpr auto kStale = StrategyKind::StaleReplay;

// Recorded at the tuple-by-value representation, before tuples became
// shared immutable blocks.
INSTANTIATE_TEST_SUITE_P(
    EveryStrategy, Gv06GoldenTest,
    ::testing::Values(
        // gv06-safe, S=4 (t=b=1)
        Gv06Golden{{kSafe, 1, 1, std::nullopt},
                   {0xddd3c3b748f9daecULL, 0x88f8ff2efb6e8fbbULL, 4386, 255796,
                    0, 0x59afada2ad3d1ae3ULL}},
        Gv06Golden{{kSafe, 1, 1, kSilent},
                   {0x95d5f3021b1926b5ULL, 0xb0248b0f5de26bfbULL, 3897, 221217,
                    0, 0xc34e6a7f5049181dULL}},
        Gv06Golden{{kSafe, 1, 1, kAmnesiac},
                   {0xb3ee2f1def569795ULL, 0x33af6c75a43208f2ULL, 4403, 238053,
                    0, 0xd6b8e97b53bd3de3ULL}},
        Gv06Golden{{kSafe, 1, 1, kForger},
                   {0x34661e3040d3413fULL, 0x3558c27ffa793de5ULL, 4717, 294241,
                    0, 0xf2e227984a8c0e55ULL}},
        Gv06Golden{{kSafe, 1, 1, kAccuser},
                   {0x673dab30a2c75354ULL, 0x2bebc05dcff310b5ULL, 4500, 270854,
                    0, 0x6a292cad08af7170ULL}},
        Gv06Golden{{kSafe, 1, 1, kEquivocator},
                   {0x677fb429f52b42b1ULL, 0x426bd6319a973772ULL, 4898, 318487,
                    0, 0xd1e1dd8dc2e74316ULL}},
        Gv06Golden{{kSafe, 1, 1, kStagger},
                   {0x96a816bbabe5c4e5ULL, 0xdca37f072ae81b98ULL, 4696, 292766,
                    0, 0x963d048b01dda6b5ULL}},
        Gv06Golden{{kSafe, 1, 1, kCollude},
                   {0xaf843fab145a6fecULL, 0x131e281ffb4023bcULL, 4728, 296216,
                    0, 0x4fd1a052a4f44befULL}},
        Gv06Golden{{kSafe, 1, 1, kRandom},
                   {0xdc60ec79d72080d9ULL, 0x746038f4530dc7dcULL, 4406, 259024,
                    0, 0x266de6b838530511ULL}},
        Gv06Golden{{kSafe, 1, 1, kStale},
                   {0x90f5c6aef0fd3550ULL, 0xe9edb3eb2e585771ULL, 4487, 241345,
                    0, 0x0c9864d95a4e0e09ULL}},
        // gv06-safe, S=7 (t=b=2)
        Gv06Golden{{kSafe, 2, 2, std::nullopt},
                   {0x60cd9b1bd604180dULL, 0x476850376167d9ffULL, 7693, 599697,
                    0, 0x2d48b4061b0709a1ULL}},
        Gv06Golden{{kSafe, 2, 2, kSilent},
                   {0xeec662845400a2abULL, 0x50cccf0dd4d3390aULL, 7203, 552521,
                    0, 0xef55a3cf25ed1d90ULL}},
        Gv06Golden{{kSafe, 2, 2, kAmnesiac},
                   {0x60cd9b1bd604180dULL, 0x40ea46d0e8c33e80ULL, 7693, 567474,
                    0, 0xcef47cfba91e081bULL}},
        Gv06Golden{{kSafe, 2, 2, kForger},
                   {0xa59c09d27bb429f9ULL, 0xfefe5e7850ff931dULL, 8179, 675926,
                    0, 0xff79983310e3b4e3ULL}},
        Gv06Golden{{kSafe, 2, 2, kAccuser},
                   {0x5e646f86c5bdc589ULL, 0x945e54de92b31355ULL, 7803, 619016,
                    0, 0x3a114b834077fb42ULL}},
        Gv06Golden{{kSafe, 2, 2, kEquivocator},
                   {0x105bfc60c22ae923ULL, 0x1d26dd2095f85e91ULL, 8243, 689157,
                    0, 0xa35664c67b02b746ULL}},
        Gv06Golden{{kSafe, 2, 2, kStagger},
                   {0xbf6f8bdcf6d0bf3eULL, 0xd92957b22129273fULL, 8173, 675806,
                    0, 0xaf03211f07c4a3b8ULL}},
        Gv06Golden{{kSafe, 2, 2, kCollude},
                   {0xf52ec6810ca00dc9ULL, 0xce3eeed747512c2dULL, 8233, 684796,
                    0, 0xa7da3c2b7bdce5d3ULL}},
        Gv06Golden{{kSafe, 2, 2, kRandom},
                   {0x59db29ad6d565015ULL, 0xcacfacef2d55fc54ULL, 7746, 608512,
                    0, 0xe93c37fa47639bdbULL}},
        Gv06Golden{{kSafe, 2, 2, kStale},
                   {0x11ccda6e8a07228fULL, 0xa6bf9caf1b7d389bULL, 7807, 574820,
                    0, 0xa7d346f28120ccb3ULL}},
        // gv06-regular, S=6 (t=2, b=1)
        Gv06Golden{{kReg, 2, 1, std::nullopt},
                   {0x54b6686d1fda194bULL, 0x888b23c738b85967ULL, 6591, 553105,
                    2861, 0x74f1df80c482b61aULL}},
        Gv06Golden{{kReg, 2, 1, kSilent},
                   {0x2206d1a6650f0760ULL, 0x07d10ac83511ed7fULL, 6080, 483329,
                    2279, 0xc50ef8b68a04767bULL}},
        Gv06Golden{{kReg, 2, 1, kAmnesiac},
                   {0x54b6686d1fda194bULL, 0x43329e327e35e74fULL, 6591, 519568,
                    2674, 0xbe39d976477a775cULL}},
        Gv06Golden{{kReg, 2, 1, kForger},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 659740,
                    3832, 0xce667e9c69e5fe37ULL}},
        Gv06Golden{{kReg, 2, 1, kAccuser},
                   {0x22dfed7602a6a67fULL, 0xb1affe629cbe3c1eULL, 6714, 590709,
                    3227, 0xd1c47d39f1505b7cULL}},
        Gv06Golden{{kReg, 2, 1, kEquivocator},
                   {0x214b2aaa0f6eb467ULL, 0x64c15c04964170cbULL, 7448, 681103,
                    3910, 0x8f40e0bcc5fcfe98ULL}},
        Gv06Golden{{kReg, 2, 1, kStagger},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 660540,
                    3832, 0xeb1c75d9e2ffe4c8ULL}},
        Gv06Golden{{kReg, 2, 1, kCollude},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 660540,
                    3832, 0x88423256b5cfa30cULL}},
        Gv06Golden{{kReg, 2, 1, kRandom},
                   {0xadaa17098ffaf5a6ULL, 0xf75c6b9b07f07e18ULL, 6561, 533371,
                    2709, 0xb1f43315fd1ade90ULL}},
        Gv06Golden{{kReg, 2, 1, kStale},
                   {0xdb4977517d62e3efULL, 0x5845a6a6543e41c4ULL, 6699, 532574,
                    2976, 0x8b6d663998d0414fULL}},
        // regular-opt, S=6 (t=2, b=1)
        Gv06Golden{{kOpt, 2, 1, std::nullopt},
                   {0x54b6686d1fda194bULL, 0x888b23c738b85967ULL, 6591, 549219,
                    2831, 0xb467a40dff77b2e0ULL}},
        Gv06Golden{{kOpt, 2, 1, kSilent},
                   {0x2206d1a6650f0760ULL, 0x07d10ac83511ed7fULL, 6080, 481515,
                    2265, 0xa1e65b2073fe47d9ULL}},
        Gv06Golden{{kOpt, 2, 1, kAmnesiac},
                   {0x54b6686d1fda194bULL, 0x43329e327e35e74fULL, 6591, 503258,
                    2348, 0x42f8d508b0d91a7fULL}},
        Gv06Golden{{kOpt, 2, 1, kForger},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 659092,
                    3827, 0x9f8c0520343bd8cbULL}},
        Gv06Golden{{kOpt, 2, 1, kAccuser},
                   {0x22dfed7602a6a67fULL, 0xb1affe629cbe3c1eULL, 6714, 589411,
                    3217, 0x5427b53fc419f0eaULL}},
        Gv06Golden{{kOpt, 2, 1, kEquivocator},
                   {0x214b2aaa0f6eb467ULL, 0x64c15c04964170cbULL, 7448, 680193,
                    3903, 0x4505d9c37c03b901ULL}},
        Gv06Golden{{kOpt, 2, 1, kStagger},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 659892,
                    3827, 0x7ed815c184af5c59ULL}},
        Gv06Golden{{kOpt, 2, 1, kCollude},
                   {0x6b4a9d8f73ce6ed8ULL, 0xd7e96cc1cb6387faULL, 7039, 659892,
                    3827, 0x581e354d0e10dc13ULL}},
        Gv06Golden{{kOpt, 2, 1, kRandom},
                   {0xadaa17098ffaf5a6ULL, 0xf75c6b9b07f07e18ULL, 6561, 532335,
                    2701, 0x0d6add10adcf04e8ULL}},
        Gv06Golden{{kOpt, 2, 1, kStale},
                   {0xdb4977517d62e3efULL, 0x5845a6a6543e41c4ULL, 6699, 529544,
                    2952, 0xaa81f920a300337bULL}}),
    [](const auto& info) { return case_name(info.param.c); });

}  // namespace
}  // namespace rr::harness
