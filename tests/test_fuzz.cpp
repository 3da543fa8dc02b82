// ScenarioFuzzer invariants: every generated scenario is parse-legal and
// round-trips bit-identically through the DSL, the fault schedule respects
// the declared (t, b) budget by construction, generation and execution are
// pure functions of the batch seed (same across runs and worker counts),
// the ddmin shrinker is idempotent on the committed fixtures, and a fuzz
// failure's auto-emitted fixture replays the failure standalone.
#include "harness/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"

namespace rr::harness {
namespace {

const std::string kFixtureDir =
    std::string(RR_SOURCE_DIR) + "/tests/fixtures/scenarios";

std::vector<std::string> scn_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Budget accounting of one generated schedule: #byz <= b and
/// #byz + #crash <= t -- except overload cells, which violate it on
/// purpose (and say so via expect_ok = false).
void expect_budget_respected(const Scenario& s) {
  const Resilience res =
      protocol_traits(s.protocol).resilience_for(s.t, s.b, s.readers);
  int byz = 0;
  int crash = 0;
  for (const auto& ev : s.events) {
    if (ev.kind == FaultEvent::Kind::Byzantine) ++byz;
    if (ev.kind == FaultEvent::Kind::Crash) ++crash;
    // Loss never appears: it violates the channel model and stalls ops.
    EXPECT_NE(ev.kind, FaultEvent::Kind::Loss);
  }
  if (s.expect_ok) {
    EXPECT_LE(byz, res.b);
    EXPECT_LE(byz + crash, res.t);
  } else {
    EXPECT_GT(crash, res.t);  // overload: deliberately past the budget
  }
}

// ---------------------------------------------------------------------------
// The 10k property: every generated scenario parses, re-emits
// bit-identically, and respects the declared budget.
// ---------------------------------------------------------------------------
TEST(Fuzz, TenThousandScenariosRoundTripAndRespectBudget) {
  FuzzOptions opts;
  opts.seed = 0xfeedULL;
  opts.overload_rate = 0.1;
  const ScenarioFuzzer fuzzer(opts);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const Scenario s = fuzzer.generate(i);
    SCOPED_TRACE("index " + std::to_string(i) + " (" + s.name + ")");
    expect_budget_respected(s);

    const std::string text = emit_scenario(s);
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << text;
    EXPECT_EQ(parsed.scenario, s);
    EXPECT_EQ(emit_scenario(parsed.scenario), text);
  }
}

// The fuzzer explores the open-loop and windowed-checker axes: a healthy
// fraction of generated scenarios draws a non-closed arrival process (with
// population/think/horizon churn knobs) and an independent checker window,
// while overload cells stay closed-loop (their stall detection predates the
// engine and must keep failing the same way).
TEST(Fuzz, DrawsOpenLoopArrivalsAndCheckerWindows) {
  FuzzOptions opts;
  opts.seed = 0xa11ceULL;
  opts.overload_rate = 0.1;
  const ScenarioFuzzer fuzzer(opts);
  int open = 0;
  int windowed = 0;
  std::map<ArrivalKind, int> shapes;
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    const Scenario s = fuzzer.generate(i);
    SCOPED_TRACE("index " + std::to_string(i) + " (" + s.name + ")");
    if (!s.expect_ok) {
      EXPECT_EQ(s.arrival, ArrivalKind::Closed);
      EXPECT_EQ(s.checker_window, 0u);
      continue;
    }
    if (s.arrival != ArrivalKind::Closed) {
      ++open;
      ++shapes[s.arrival];
      EXPECT_GE(s.clients, 1u);
      EXPECT_GE(s.think, 1u);
      EXPECT_GE(s.horizon, 1u);
      EXPECT_GE(s.write_fraction, 0.0);
      EXPECT_LE(s.write_fraction, 1.0);
    }
    if (s.checker_window != 0) ++windowed;
  }
  EXPECT_GT(open, 200) << "open-loop draws are too rare";
  EXPECT_GT(windowed, 400) << "windowed-checker draws are too rare";
  EXPECT_GT(shapes[ArrivalKind::Poisson], 0);
  EXPECT_GT(shapes[ArrivalKind::Bursty], 0);
  EXPECT_GT(shapes[ArrivalKind::Diurnal], 0);
}

// Generation is a pure function of (seed, index): regenerating yields the
// identical batch, and distinct seeds diverge.
TEST(Fuzz, GenerationIsDeterministicPerSeed) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 200;
  opts.overload_rate = 0.2;
  const ScenarioFuzzer a(opts);
  const ScenarioFuzzer b(opts);
  EXPECT_EQ(a.batch(), b.batch());

  opts.seed = 43;
  const ScenarioFuzzer c(opts);
  EXPECT_NE(a.batch(), c.batch());
}

/// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

// The fuzzer's draw stream, pinned: the emitted text of every batch CI
// generates (and of the 10k round-trip batch above) hashes to the value
// recorded before the fault-primitive table replaced the hand-written
// draws. Any change to what a seed generates -- a reordered draw, a new
// pool entry, a different default -- changes the hash. A deliberate change
// re-records these values and says why.
TEST(Fuzz, CiBatchesKeepTheirText) {
  struct Batch {
    const char* what;
    std::uint64_t seed;
    int count;
    double overload;
    std::vector<Protocol> protocols;
    std::vector<BackendKind> backends;
    std::uint64_t hash;
  };
  const Batch kBatches[] = {
      {"seed=1 count=1008 --protocols=safe,regular,abd", 1, 1008, 0.0,
       {Protocol::Safe, Protocol::Regular, Protocol::Abd}, {},
       0x622c656ee59104f6ULL},
      {"seed=8 count=50 overload=0.1", 8, 50, 0.1, {}, {},
       0xafcd6fa94a25d92fULL},
      {"seed=1 count=24 --protocols=safe,abd --backends=net", 1, 24, 0.0,
       {Protocol::Safe, Protocol::Abd}, {BackendKind::Net},
       0x44cde68fc3a5d2e4ULL},
      {"seed=1 count=192 --protocols=safe,auth", 1, 192, 0.0,
       {Protocol::Safe, Protocol::Auth}, {}, 0xb04079101abd240cULL},
      {"seed=0xfeed count=10000 overload=0.1", 0xfeed, 10'000, 0.1, {}, {},
       0x1e6783100a19361aULL},
  };
  for (const auto& b : kBatches) {
    SCOPED_TRACE(b.what);
    FuzzOptions opts;
    opts.seed = b.seed;
    opts.count = b.count;
    opts.overload_rate = b.overload;
    opts.protocols = b.protocols;
    opts.backends = b.backends;
    std::uint64_t h = kFnvSeed;
    for (const auto& s : ScenarioFuzzer(opts).batch()) {
      h = fnv1a(h, emit_scenario(s));
    }
    EXPECT_EQ(h, b.hash) << std::hex << "0x" << h;
  }
}

// The fuzzer's outcomes, pinned the same way: a 400-cell DES batch over
// all seven protocols folds every cell's name, verdict and DES fingerprint
// into one value. Its schedules use every primitive but `loss`, which
// ScenarioDsl.CommittedFilesKeepTheirFingerprints pins through
// lossy-links.scn, so together they guard how each primitive applies.
TEST(Fuzz, DesBatchKeepsItsVerdictsAndFingerprints) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 400;
  opts.overload_rate = 0.1;
  opts.backends = {BackendKind::Sim};
  const auto batch = ScenarioFuzzer(opts).batch();
  CoverageMatrix matrix;
  matrix.add_all(batch);
  EXPECT_EQ(matrix.counts.size(), 12u);
  EXPECT_EQ(matrix.counts.count("loss"), 0u);

  const SweepReport report = SweepEngine(batch).run(4);
  EXPECT_EQ(report.failed, 0);
  std::uint64_t h = kFnvSeed;
  for (const auto& c : report.cells) {
    h = fnv1a(h, c.name + (c.ok ? " ok " : " fail ") +
                     std::to_string(c.fingerprint) + "\n");
  }
  EXPECT_EQ(h, 0x42f1bf258e4a1bffULL) << std::hex << "0x" << h;
}

// Full-run determinism across worker counts: same seed and count yield
// identical cell keys, verdicts, and DES fingerprints whether the batch
// runs on 1 thread or 4 (the acceptance bar for `sweep_cli --fuzz`).
TEST(Fuzz, RunIsDeterministicAcrossWorkerCounts) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.count = 24;
  opts.backends = {BackendKind::Sim};  // fingerprints only exist on the DES
  opts.overload_rate = 0.15;

  const FuzzResult one = run_fuzz(opts, /*workers=*/1);
  const FuzzResult four = run_fuzz(opts, /*workers=*/4);
  ASSERT_EQ(one.report.cells.size(), four.report.cells.size());
  for (std::size_t i = 0; i < one.report.cells.size(); ++i) {
    const auto& a = one.report.cells[i];
    const auto& b = four.report.cells[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_NE(a.fingerprint, 0u);
  }
  EXPECT_EQ(one.unexpected, four.unexpected);
}

// Overload cells are generated expect-fail, actually fail (the stall is
// guaranteed by construction), and never count as unexpected.
TEST(Fuzz, OverloadCellsFailAsExpected) {
  FuzzOptions opts;
  opts.seed = 11;
  opts.count = 12;
  opts.overload_rate = 1.0;
  const FuzzResult r = run_fuzz(opts, 0);
  EXPECT_EQ(r.overload_cells, opts.count);
  EXPECT_TRUE(r.unexpected.empty()) << r.unexpected.front();
  for (const auto& v : r.report.cells) {
    EXPECT_FALSE(v.expect_ok);
    EXPECT_FALSE(v.ok) << v.name << " completed despite t+1 crashes";
  }
}

// ---------------------------------------------------------------------------
// ddmin idempotence over the committed fixtures: a fixture that still
// reproduces its failure is already 1-minimal (re-shrinking returns the
// identical schedule), and every shrunk schedule round-trips.
// ---------------------------------------------------------------------------
TEST(Fuzz, ShrinkerIsIdempotentOnCommittedFixtures) {
  for (const auto& path : scn_files(kFixtureDir)) {
    SCOPED_TRACE(path);
    const auto loaded = load_scenario_file(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    const Scenario& s = loaded.scenario;
    const CellVerdict v = SweepEngine::run_cell(s);
    if (v.ok) {
      // A passing fixture (e.g. a soak) has nothing to shrink; it must at
      // least declare itself expect-ok.
      EXPECT_TRUE(s.expect_ok);
      continue;
    }
    const ShrinkResult shrunk = SweepEngine::shrink(s);
    EXPECT_EQ(shrunk.minimal.events, s.events)
        << "fixture is not 1-minimal: re-shrinking dropped "
        << s.events.size() - shrunk.minimal.events.size() << " event(s)";
    const auto text = emit_scenario(shrunk.minimal);
    const auto reparsed = parse_scenario(text);
    ASSERT_TRUE(reparsed.ok) << reparsed.error;
    EXPECT_EQ(reparsed.scenario, shrunk.minimal);
  }
}

// ---------------------------------------------------------------------------
// The auto-fixture pipeline, pinned end-to-end with a known-bad semantics
// override: checking a safe-register protocol against Atomic must produce
// failures, each failure's emitted .scn must replay the failure standalone
// (expect fail, so it is committed-ready), and the shrunk twin too.
// ---------------------------------------------------------------------------
TEST(Fuzz, FailingCellsEmitReplayableFixtures) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rr-fuzz-fixtures-test";
  std::filesystem::remove_all(dir);

  FuzzOptions opts;
  opts.seed = 3;
  opts.count = 30;
  opts.protocols = {Protocol::Safe};
  opts.backends = {BackendKind::Sim};
  opts.check_override = Semantics::Atomic;  // known-bad: safe is not atomic
  opts.fixture_dir = dir.string();
  const FuzzResult r = run_fuzz(opts, 0);
  ASSERT_FALSE(r.unexpected.empty())
      << "atomic override on the safe protocol produced no violation in "
      << opts.count << " scenarios";
  ASSERT_FALSE(r.fixtures.empty());

  for (const auto& path : r.fixtures) {
    SCOPED_TRACE(path);
    const auto loaded = load_scenario_file(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_FALSE(loaded.scenario.expect_ok);
    // The fixture alone -- no fuzzer, no batch context -- must reproduce.
    const CellVerdict v = SweepEngine::run_cell(loaded.scenario);
    EXPECT_FALSE(v.ok) << "emitted fixture no longer fails";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rr::harness
