// Sweep-engine guarantees: determinism (the same scenario gives a
// bit-identical cell fingerprint across repeated runs and across worker
// counts; different run seeds give distinct schedules), replay by name,
// deliberate-violation shrinking to a minimal replayable schedule, and the
// CI fuzz batch's contract (>= 1000 cells, >= 3 protocols, both backends).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "harness/fuzz.hpp"
#include "harness/sweep.hpp"

namespace rr::harness {
namespace {

/// A DES-only fuzz batch with a few deliberate overload cells.
std::vector<Scenario> small_des_batch(int count = 36) {
  FuzzOptions opts;
  opts.seed = 4;
  opts.count = count;
  opts.backends = {BackendKind::Sim};
  opts.overload_rate = 0.1;
  return ScenarioFuzzer(opts).batch();
}

/// t+1 = 3 timed crashes on gv06-safe (S = 6 at t=2, b=1): quorums of S - t
/// become unreachable, so operations stall -- a guaranteed liveness
/// failure. The two hold waves are droppable noise for the shrinker.
Scenario overload_scenario(BackendKind backend) {
  Scenario s;
  s.name = "overload";
  s.protocol = Protocol::Safe;
  s.backend = backend;
  s.writes = 5;
  s.reads_per_reader = 3;
  s.write_gap = 4'000;
  s.read_gap = 2'500;
  s.run_seed = 7;
  s.expect_ok = false;
  for (const auto& [obj, at] : {std::pair{0, 5'000}, {2, 11'000}, {4, 8'000}}) {
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::Crash;
    crash.object = obj;
    crash.at = static_cast<Time>(at);
    s.events.push_back(crash);
  }
  for (const Time at : {Time{30'000}, Time{70'000}}) {
    FaultEvent hold;
    hold.kind = FaultEvent::Kind::Hold;
    hold.held = {1};
    hold.at = at;
    hold.duration = 20'000;
    s.events.push_back(hold);
  }
  return s;
}

TEST(Sweep, SameScenarioBitIdenticalFingerprintAcrossRuns) {
  const auto batch = small_des_batch();
  for (std::size_t i = 0; i < batch.size(); i += 5) {
    const Scenario& s = batch[i];
    const CellVerdict a = SweepEngine::run_cell(s);
    const CellVerdict b = SweepEngine::run_cell(s);
    EXPECT_EQ(a.ok, s.expect_ok) << a.name << ": " << a.first_violation;
    EXPECT_NE(a.fingerprint, 0u) << a.name;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << a.name;
    EXPECT_EQ(a.events, b.events) << a.name;
    EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent) << a.name;
    EXPECT_EQ(a.read_p95, b.read_p95) << a.name;
  }
}

TEST(Sweep, WorkerCountDoesNotChangeVerdicts) {
  const SweepEngine engine(small_des_batch());
  const SweepReport serial = engine.run(1);
  const SweepReport parallel = engine.run(4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].name, parallel.cells[i].name);
    EXPECT_EQ(serial.cells[i].fingerprint, parallel.cells[i].fingerprint)
        << serial.cells[i].name;
    EXPECT_EQ(serial.cells[i].ok, parallel.cells[i].ok);
    EXPECT_EQ(serial.cells[i].events, parallel.cells[i].events);
  }
  EXPECT_EQ(serial.failed, 0);
  EXPECT_EQ(parallel.failed, 0);
}

// The run seed is a scenario's only seed, and it must reach the schedule.
TEST(Sweep, DistinctRunSeedsProduceDistinctSchedules) {
  Scenario s = overload_scenario(BackendKind::Sim);
  s.events.erase(s.events.begin());  // two crashes: within the budget
  s.expect_ok = true;
  std::set<std::uint64_t> fingerprints;
  constexpr std::uint64_t kSeeds = 24;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    s.run_seed = seed;
    const CellVerdict v = SweepEngine::run_cell(s);
    EXPECT_TRUE(v.ok) << "run seed " << seed << ": " << v.first_violation;
    fingerprints.insert(v.fingerprint);
  }
  // A collision would mean two different seeds produced the same delivery
  // schedule, history, and traffic -- the seed would not be reaching the
  // delay model.
  EXPECT_EQ(fingerprints.size(), kSeeds);
}

TEST(Sweep, ReplayByNameReproducesTheCell) {
  const SweepEngine engine(small_des_batch());
  const SweepReport report = engine.run(2);
  const CellVerdict& original = report.cells[17];
  const Scenario* replayed = engine.find(original.name);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->name, "fuzz-4-17");
  EXPECT_EQ(SweepEngine::run_cell(*replayed).fingerprint, original.fingerprint);

  EXPECT_EQ(engine.find("fuzz-4-999"), nullptr);
  EXPECT_EQ(engine.find("scn:fuzz-4-17"), nullptr);
  EXPECT_EQ(engine.find(""), nullptr);
}

// The CI fuzz batch (sweep_cli --fuzz seed=1 count=1008
// --protocols=safe,regular,abd) spans >= 1000 cells, every named protocol
// and both default backends.
TEST(Sweep, CiFuzzBatchMeetsTheCiContract) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 1008;
  opts.protocols = {Protocol::Safe, Protocol::Regular, Protocol::Abd};
  const auto batch = ScenarioFuzzer(opts).batch();
  EXPECT_GE(batch.size(), 1000u);
  std::set<Protocol> protocols;
  std::set<BackendKind> backends;
  for (const auto& s : batch) {
    protocols.insert(s.protocol);
    backends.insert(s.backend);
  }
  EXPECT_EQ(protocols.size(), 3u);
  EXPECT_EQ(backends, (std::set{BackendKind::Sim, BackendKind::Threads}));
}

// An overload scenario is a deliberate liveness violation: t+1 timed
// crashes (quorums of S-t permanently unreachable) plus hold-wave noise.
// The shrinker must strip the noise and return exactly the t+1 crashes --
// a minimal schedule: dropping any one more crash re-enters the budget and
// the run passes.
TEST(Sweep, OverloadShrinksToMinimalCrashSchedule) {
  const SweepEngine engine({overload_scenario(BackendKind::Sim)});
  const Scenario& s = engine.scenarios().front();
  ASSERT_GT(s.events.size(), static_cast<std::size_t>(s.t + 1));

  const CellVerdict full = SweepEngine::run_cell(s);
  ASSERT_FALSE(full.ok);
  EXPECT_GT(full.ops_stuck, 0);

  const ShrinkResult shrunk = SweepEngine::shrink(s);
  EXPECT_EQ(shrunk.original_events, static_cast<int>(s.events.size()));
  ASSERT_EQ(shrunk.minimal.events.size(), static_cast<std::size_t>(s.t + 1));
  for (const auto& ev : shrunk.minimal.events) {
    EXPECT_EQ(ev.kind, FaultEvent::Kind::Crash);
  }
  // Still failing, and replayable through the reported name.
  EXPECT_FALSE(SweepEngine::run_cell(shrunk.minimal).ok);
  const Scenario* replayed = engine.find(shrunk.name);
  ASSERT_NE(replayed, nullptr);
  EXPECT_FALSE(SweepEngine::run_cell(*replayed).ok);
  // Minimality: dropping any single remaining crash re-enters the budget.
  for (std::size_t i = 0; i < shrunk.minimal.events.size(); ++i) {
    Scenario candidate = shrunk.minimal;
    candidate.events.erase(candidate.events.begin() +
                           static_cast<std::ptrdiff_t>(i));
    EXPECT_TRUE(SweepEngine::run_cell(candidate).ok);
  }
}

// A deliberately-injected *checker* violation: checking atomic semantics
// against a protocol that only promises safe storage. Under a Byzantine
// impostor the safe protocol legally returns stale values to reads
// concurrent with writes, which the stronger checker flags. The shrinker
// must pin the violation to the fault events it actually depends on, and
// the cell must replay by name.
TEST(Sweep, SemanticsOverrideViolationShrinksAndReplays) {
  FuzzOptions opts;
  opts.seed = 5;
  opts.count = 60;
  opts.protocols = {Protocol::Safe};
  opts.backends = {BackendKind::Sim};
  opts.check_override = Semantics::Atomic;
  const SweepEngine engine(ScenarioFuzzer(opts).batch());

  // Deterministic scan: given fixed generation code the first failing cell
  // with a Byzantine object is always the same one.
  const Scenario* failing = nullptr;
  CellVerdict failed;
  for (const auto& s : engine.scenarios()) {
    bool byzantine = false;
    for (const auto& ev : s.events) {
      byzantine = byzantine || ev.kind == FaultEvent::Kind::Byzantine;
    }
    if (!byzantine) continue;
    failed = SweepEngine::run_cell(s);
    if (!failed.ok) {
      failing = &s;
      break;
    }
  }
  ASSERT_NE(failing, nullptr)
      << "no Byzantine cell in the scan produced the injected violation";
  EXPECT_GT(failed.violations, 0) << "expected a checker violation, not "
                                  << failed.first_violation;

  const ShrinkResult shrunk = SweepEngine::shrink(*failing);
  EXPECT_LE(shrunk.minimal.events.size(), failing->events.size());
  EXPECT_FALSE(shrunk.first_violation.empty());
  const CellVerdict minimal_run = SweepEngine::run_cell(shrunk.minimal);
  EXPECT_FALSE(minimal_run.ok);
  EXPECT_GT(minimal_run.violations, 0);

  const Scenario* replayed = engine.find(shrunk.name);
  ASSERT_NE(replayed, nullptr);
  const CellVerdict again = SweepEngine::run_cell(*replayed);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.fingerprint, failed.fingerprint);
}

TEST(Sweep, JsonReportIsWritten) {
  const SweepEngine engine(small_des_batch(4));
  const SweepReport report = engine.run(1);
  const std::string path = ::testing::TempDir() + "sweep_report.json";
  ASSERT_TRUE(SweepEngine::write_json(report, path));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("scenario_sweep"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"fuzz-4-3\""), std::string::npos) << text;
}

}  // namespace
}  // namespace rr::harness
