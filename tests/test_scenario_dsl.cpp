// Scenario DSL invariants: the round-trip property (parse -> emit -> parse
// is the identity on the Scenario and on the DES fingerprint), golden DES
// fingerprints for every committed scenario file, and the fixture-replay
// regression contract for tests/fixtures/scenarios/.
#include "harness/scenario_dsl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/primitives.hpp"
#include "harness/sweep.hpp"

namespace rr::harness {
namespace {

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

const std::string kLibraryDir = std::string(RR_SOURCE_DIR) + "/scenarios";
const std::string kFixtureDir =
    std::string(RR_SOURCE_DIR) + "/tests/fixtures/scenarios";

// ---------------------------------------------------------------------------
// The round-trip property, pinned over every committed scenario file: parse
// -> emit -> parse yields an identical Scenario, and (for DES cells) running
// both yields the identical schedule fingerprint.
// ---------------------------------------------------------------------------
TEST(ScenarioDsl, RoundTripIsIdentityOnEveryCommittedFile) {
  std::vector<std::string> files = scn_files(kLibraryDir);
  for (auto& f : scn_files(kFixtureDir)) files.push_back(std::move(f));
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto first = load_scenario_file(path);
    ASSERT_TRUE(first.ok) << first.error;
    const std::string text = emit_scenario(first.scenario);
    const auto second = parse_scenario(text);
    ASSERT_TRUE(second.ok) << second.error;
    // The file-level name default comes from the filename; the emitted text
    // carries it explicitly, so the structs must match exactly.
    EXPECT_EQ(first.scenario, second.scenario);
    EXPECT_EQ(emit_scenario(second.scenario), text);
    if (first.scenario.backend == BackendKind::Sim) {
      const auto v1 = SweepEngine::run_cell(first.scenario);
      const auto v2 = SweepEngine::run_cell(second.scenario);
      EXPECT_EQ(v1.fingerprint, v2.fingerprint);
      EXPECT_NE(v1.fingerprint, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden values: every committed scenario file keeps the DES fingerprint,
// verdict, completed-op count and message count it had when the fault-
// template grid was retired and the files were rewritten to one seed each
// (template lines and seed= keys dropped, the effective seed written as
// `runseed`). The legacy-* files are the only record of the grid's shapes.
// ---------------------------------------------------------------------------
TEST(ScenarioDsl, CommittedFilesKeepTheirFingerprints) {
  struct Golden {
    const char* file;
    std::uint64_t fingerprint;
    bool ok;
    int ops_complete;
    std::uint64_t messages_sent;
  };
  const Golden kGolden[] = {
      {"scenarios/coverage-abd.scn", 0x4ab22636ec9f6462ULL, true, 14, 207},
      {"scenarios/coverage-auth.scn", 0x0a5fff9fe83e7214ULL, true, 14, 170},
      {"scenarios/coverage-fastwrite.scn", 0x8d3fde71b2e7be25ULL, true, 14,
       269},
      {"scenarios/coverage-polling.scn", 0xae57ecf9e756207dULL, true, 14, 298},
      {"scenarios/coverage-regular-opt.scn", 0x89b96f06a6a9233fULL, true, 14,
       330},
      {"scenarios/coverage-regular.scn", 0x112fd65063f2a4f6ULL, true, 14, 331},
      {"scenarios/coverage-safe.scn", 0x49d03ae08fdec62eULL, true, 14, 320},
      {"scenarios/hist-hardcap.scn", 0xcf927246327e4452ULL, true, 40, 640},
      {"scenarios/legacy-byz.scn", 0xbaa8906d01bcf0c1ULL, true, 8, 189},
      {"scenarios/legacy-byzchaos.scn", 0xa389d7e31dbd7490ULL, true, 11, 259},
      {"scenarios/legacy-chaos.scn", 0xfaf8dbfe91ea2e36ULL, true, 9, 130},
      {"scenarios/legacy-crash.scn", 0x774aa831b51b9398ULL, true, 10, 236},
      {"scenarios/legacy-mixed.scn", 0x71c6c5befbb9494aULL, true, 8, 177},
      {"scenarios/legacy-none.scn", 0xcdeab39bb56b25e5ULL, true, 11, 262},
      {"tests/fixtures/scenarios/gray-soak.scn", 0xbec3bea146219838ULL, true,
       13, 289},
      {"tests/fixtures/scenarios/lossy-links.scn", 0xdcad359d7ea65f60ULL,
       false, 7, 171},
      {"tests/fixtures/scenarios/poll-gray-stale-read.scn",
       0xe13848d4fa6c5528ULL, true, 26, 204},
      {"tests/fixtures/scenarios/shrunk-overload.scn", 0x788b01580898e7b4ULL,
       false, 3, 95},
  };
  // Every committed file is pinned: a new file needs a golden row too.
  EXPECT_EQ(scn_files(kLibraryDir).size() + scn_files(kFixtureDir).size(),
            std::size(kGolden));
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.file);
    const auto parsed =
        load_scenario_file(std::string(RR_SOURCE_DIR) + "/" + g.file);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.scenario.backend, BackendKind::Sim);
    const CellVerdict v = SweepEngine::run_cell(parsed.scenario);
    EXPECT_EQ(v.fingerprint, g.fingerprint);
    EXPECT_EQ(v.ok, g.ok) << v.first_violation;
    EXPECT_EQ(v.ok, parsed.scenario.expect_ok);
    EXPECT_EQ(v.ops_complete, g.ops_complete);
    EXPECT_EQ(v.net.messages_sent, g.messages_sent);
  }
}

// ---------------------------------------------------------------------------
// Fixture replay: every file under tests/fixtures/scenarios/ runs on its
// recorded protocol/backend/seed and must reproduce its recorded verdict.
// This is where shrinker-emitted minimal failing schedules live forever.
// ---------------------------------------------------------------------------
TEST(ScenarioDsl, FixturesReproduceTheirRecordedVerdicts) {
  const auto files = scn_files(kFixtureDir);
  ASSERT_FALSE(files.empty());
  int expected_failures = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto parsed = load_scenario_file(path);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const CellVerdict v = SweepEngine::run_cell(parsed.scenario);
    EXPECT_EQ(v.ok, parsed.scenario.expect_ok) << v.first_violation;
    if (!parsed.scenario.expect_ok) ++expected_failures;
  }
  // The directory must keep at least one shrunk minimal failing schedule.
  EXPECT_GE(expected_failures, 1);
}

// The fixture directory also runs through the sweep engine as first-class
// cells, named by file stem, with expect-aware failure counting.
TEST(ScenarioDsl, LibraryRunsAsSweepCells) {
  const auto lib = load_scenario_dir(kFixtureDir);
  ASSERT_TRUE(lib.ok()) << lib.errors.front();
  const SweepEngine engine(lib.scenarios);
  const SweepReport report = engine.run(2);
  ASSERT_EQ(report.cells.size(), lib.scenarios.size());
  EXPECT_EQ(report.failed, 0) << "a fixture's verdict drifted";
  const auto files = scn_files(kFixtureDir);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(report.cells[i].name,
              std::filesystem::path(files[i]).stem().string());
  }
}

// ---------------------------------------------------------------------------
// Parser surface: sugar (time suffixes, from=/to=, Nx factors) lowers to
// canonical form, and malformed input is a parse error with a line number,
// never an assertion later in the pipeline.
// ---------------------------------------------------------------------------
TEST(ScenarioDsl, SugarLowersToCanonicalForm) {
  const auto parsed = parse_scenario(
      "scenario safe des name=sugar\n"
      "runseed 4\n"
      "workload writes=3 reads=2 write_gap=5us read_gap=3us shards=1\n"
      "fault gray obj=1 slow=8x from=10us to=200us\n"
      "fault flap objs=0,3 period=20us duty=0.5\n"
      "fault crash obj=2 at=40us\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& s = parsed.scenario;
  EXPECT_EQ(s.write_gap, 5'000u);
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, FaultEvent::Kind::Gray);
  EXPECT_DOUBLE_EQ(s.events[0].rate, 8.0);
  EXPECT_EQ(s.events[0].at, 10'000u);
  EXPECT_EQ(s.events[0].duration, 190'000u);  // to - from
  EXPECT_EQ(s.events[1].kind, FaultEvent::Kind::Flap);
  EXPECT_EQ(s.events[1].period, 20'000u);
  EXPECT_EQ(s.events[1].duration, 300'000u);  // default horizon, resolved
  EXPECT_EQ(s.events[2].at, 40'000u);
  // The canonical emission re-parses to the identical scenario.
  const auto again = parse_scenario(emit_scenario(s));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.scenario, s);
}

// Each default is written once, in the fault-primitive table, and applies
// the same to a parsed line and to an event built in code with the field
// left 0: same text, same run.
TEST(ScenarioDsl, DefaultsApplyToEventsBuiltInCode) {
  const auto parsed = parse_scenario(
      "scenario regular des name=defaults\n"
      "runseed 5\n"
      "fault flap objs=0 at=10us jitter=1us\n"
      "fault reorder p=0.3\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Scenario built = parsed.scenario;
  built.events[0].duration = 0;  // flap window, period and duty
  built.events[0].period = 0;
  built.events[0].rate = 0;
  built.events[1].period = 0;  // reorder delay
  ASSERT_NE(built, parsed.scenario);
  EXPECT_EQ(emit_scenario(built), emit_scenario(parsed.scenario));
  EXPECT_EQ(SweepEngine::run_cell(built).fingerprint,
            SweepEngine::run_cell(parsed.scenario).fingerprint);
}

TEST(ScenarioDsl, HistoryDirectiveRoundTrips) {
  const auto parsed = parse_scenario(
      "scenario regular des name=hist\n"
      "runseed 3\n"
      "history limit=8 gc=off\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.scenario.history_limit, 8u);
  EXPECT_FALSE(parsed.scenario.history_gc);
  const auto again = parse_scenario(emit_scenario(parsed.scenario));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.scenario, parsed.scenario);
  // The defaults (limit=0, gc=on) emit no history line at all.
  const auto plain =
      parse_scenario("scenario regular des name=x\nrunseed 3\n");
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(emit_scenario(plain.scenario).find("history"), std::string::npos);
}

TEST(ScenarioDsl, OpenLoopWorkloadKeysRoundTrip) {
  const auto parsed = parse_scenario(
      "scenario safe des name=open\n"
      "runseed 5\n"
      "workload arrival=bursty clients=5000 think=2ms horizon=500us "
      "write_frac=0.2 window=64\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& s = parsed.scenario;
  EXPECT_EQ(s.arrival, ArrivalKind::Bursty);
  EXPECT_EQ(s.clients, 5'000u);
  EXPECT_EQ(s.think, 2'000'000u);
  EXPECT_EQ(s.horizon, 500'000u);
  EXPECT_DOUBLE_EQ(s.write_fraction, 0.2);
  EXPECT_EQ(s.checker_window, 64u);
  const std::string text = emit_scenario(s);
  EXPECT_NE(text.find("arrival=bursty"), std::string::npos) << text;
  const auto again = parse_scenario(text);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.scenario, s);
  EXPECT_EQ(emit_scenario(again.scenario), text);
  // The window is independent of the arrival process: a closed-loop
  // scenario may still stream-check.
  const auto closed = parse_scenario(
      "scenario safe des name=win\nrunseed 5\nworkload window=32\n");
  ASSERT_TRUE(closed.ok) << closed.error;
  EXPECT_EQ(closed.scenario.arrival, ArrivalKind::Closed);
  EXPECT_EQ(closed.scenario.checker_window, 32u);
  const auto closed_again = parse_scenario(emit_scenario(closed.scenario));
  ASSERT_TRUE(closed_again.ok) << closed_again.error;
  EXPECT_EQ(closed_again.scenario, closed.scenario);
  // Defaults (closed loop, batch checker) emit no open-loop keys at all.
  const auto plain =
      parse_scenario("scenario safe des name=x\nrunseed 5\n");
  ASSERT_TRUE(plain.ok);
  const std::string plain_text = emit_scenario(plain.scenario);
  EXPECT_EQ(plain_text.find("arrival"), std::string::npos) << plain_text;
  EXPECT_EQ(plain_text.find("window"), std::string::npos) << plain_text;
}

TEST(ScenarioDsl, OpenLoopDesCellsReplayBitIdentically) {
  const auto parsed = parse_scenario(
      "scenario regular des name=openrt\n"
      "runseed 21\n"
      "workload arrival=poisson clients=800 think=8ms horizon=400us "
      "window=24\n"
      "fault gray obj=1 slow=3x at=50us dur=100us\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto again = parse_scenario(emit_scenario(parsed.scenario));
  ASSERT_TRUE(again.ok) << again.error;
  const auto v1 = SweepEngine::run_cell(parsed.scenario);
  const auto v2 = SweepEngine::run_cell(again.scenario);
  EXPECT_EQ(v1.fingerprint, v2.fingerprint);
  EXPECT_NE(v1.fingerprint, 0u);
  EXPECT_GT(v1.hist_retired, 0u) << "window=24 must retire online";
}

TEST(ScenarioDsl, MalformedInputIsARejectionNotAnAbort) {
  const char* cases[] = {
      "",                                        // no scenario line
      "scenario safe des\n",                     // no runseed line
      "scenario safe des\nrunseed -3\n",         // bad runseed
      "scenario safe des seed=7\nrunseed 1\n",   // retired seed= key
      "scenario safe des\nrunseed 1\ntemplate none\n",  // retired directive
      "fault crash obj=0\nscenario safe des\n",  // scenario not first
      "scenario warp des\nrunseed 1\n",          // unknown protocol
      "scenario safe des\nrunseed 1\n"           // unknown fault kind
      "fault flip obj=0\n",
      "scenario safe des\nrunseed 1\n"           // missing obj=
      "fault crash at=5\n",
      "scenario safe des\nrunseed 1\n"           // object out of range
      "fault crash obj=99 at=5\n",
      "scenario safe des\nrunseed 1\n"           // negative time
      "fault crash obj=1 at=-5\n",
      "scenario safe des\nrunseed 1\n"           // hold without dur
      "fault hold objs=0 at=5\n",
      "scenario safe des\nrunseed 1\n"           // factor <= 1
      "fault gray obj=0 slow=0.5\n",
      "scenario safe des\nrunseed 1\n"           // p out of range
      "fault loss p=2\n",
      "scenario safe des\nrunseed 1\n"           // second loss rule
      "fault loss p=0.1\nfault loss p=0.2\n",
      "scenario safe des\nrunseed 1\n"           // byz over budget b=1
      "fault byz obj=0\nfault byz obj=1\n",
      "scenario safe des\nrunseed 1\n"           // unknown directive
      "nonsense 1 2 3\n",
      "scenario regular des\nrunseed 1\n"        // cap below two slots
      "history limit=1\n",
      "scenario regular des\nrunseed 1\n"        // bad gc value
      "history gc=maybe\n",
      "scenario safe des\nrunseed 1\n"           // unknown arrival
      "workload arrival=warp\n",
      "scenario safe des\nrunseed 1\n"           // clients need open
      "workload clients=500\n",
      "scenario safe des\nrunseed 1\n"           // think needs open
      "workload think=1ms\n",
      "scenario safe des\nrunseed 1\n"           // write_frac range
      "workload arrival=poisson write_frac=1.5\n",
      "scenario safe des\nrunseed 1\n"           // zero population
      "workload arrival=poisson clients=0\n",
      "scenario safe threads\nrunseed 1\n"       // skew is DES-only
      "fault skew obj=0 offset=-4000\n",
      "scenario safe net\nrunseed 1\n"           // skew is DES-only
      "fault skew role=writer offset=100\n",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    const auto parsed = parse_scenario(text);
    EXPECT_FALSE(parsed.ok);
    EXPECT_FALSE(parsed.error.empty());
  }
  // A file in the retired grid format (a seed= key, a template line and no
  // runseed) fails to parse instead of being silently re-seeded.
  const auto old_format = parse_scenario(
      "scenario safe des seed=1\ntemplate none\nbudget t=2 b=1 readers=2\n");
  ASSERT_FALSE(old_format.ok);
  EXPECT_NE(old_format.error.find("line 1: unknown key 'seed'"),
            std::string::npos)
      << old_format.error;
  const auto no_seed = parse_scenario("scenario safe des\nbudget t=1 b=0\n");
  ASSERT_FALSE(no_seed.ok);
  EXPECT_NE(no_seed.error.find("line 1: missing runseed"), std::string::npos)
      << no_seed.error;
  // A fault the backend cannot apply is refused on its own line, not run
  // without it.
  const auto skew = parse_scenario(
      "scenario regular threads\nrunseed 1\nfault skew obj=0 offset=-4000\n");
  ASSERT_FALSE(skew.ok);
  EXPECT_NE(skew.error.find("line 3: fault skew"), std::string::npos)
      << skew.error;
}

// docs/SCENARIO_DSL.md's primitive table stays in step with the code's:
// every DSL word has a `fault <word>` row naming each of its keys, and the
// doc has no `fault` row the code lacks.
TEST(ScenarioDsl, DocTableMatchesPrimitiveTable) {
  std::ifstream doc(std::string(RR_SOURCE_DIR) + "/docs/SCENARIO_DSL.md");
  ASSERT_TRUE(doc.good());
  std::map<std::string, std::string> rows;  // word -> its table line
  const std::string open = "| `fault ";
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind(open, 0) != 0) continue;
    const auto end = line.find('`', open.size());
    ASSERT_NE(end, std::string::npos) << line;
    rows[line.substr(open.size(), end - open.size())] = line;
  }
  std::set<std::string> words;
  for (const auto& p : primitives()) {
    SCOPED_TRACE(p.label);
    words.insert(p.word);
    ASSERT_EQ(rows.count(p.word), 1u) << "no | `fault " << p.word << "` | row";
    std::vector<std::string> names;
    for (const auto& k : p.keys) {
      names.emplace_back(k.name);
      if (k.type == KeyType::Target) names.insert(names.end(), {"role", "idx"});
    }
    for (const auto& name : names) {
      EXPECT_NE(rows[p.word].find("`" + name + "`"), std::string::npos)
          << "the `fault " << p.word << "` row does not name `" << name
          << "`";
    }
  }
  for (const auto& [word, line] : rows) {
    EXPECT_EQ(words.count(word), 1u) << "doc row without a table row: "
                                     << line;
  }
}

// Scenarios resolve by name through the engine (the name defaults to the
// filename stem for file-backed scenarios).
TEST(ScenarioDsl, NamedScenariosResolveThroughTheEngine) {
  auto parsed = parse_scenario(
      "scenario regular des name=probe\nrunseed 2\n"
      "fault crash obj=1 at=9000\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const SweepEngine engine({parsed.scenario});
  const Scenario* found = engine.find("probe");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, parsed.scenario);
  EXPECT_EQ(engine.find("absent"), nullptr);
}

// Client-role targets on gray/skew survive parse -> emit -> parse
// bit-identically, alongside plain object targets.
TEST(ScenarioDsl, ClientRoleTargetsRoundTrip) {
  const auto parsed = parse_scenario(
      "scenario regular des name=roles\n"
      "runseed 9\n"
      "budget t=1 b=0 readers=3\n"
      "fault gray role=writer slow=3 at=5000 dur=2000\n"
      "fault gray role=reader idx=2 slow=2 at=6000 dur=2000\n"
      "fault skew role=writer offset=-1500\n"
      "fault skew role=reader idx=1 offset=800\n"
      "fault gray obj=1 slow=4 at=7000 dur=1000\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& s = parsed.scenario;
  ASSERT_EQ(s.events.size(), 5u);
  EXPECT_EQ(s.events[0].role, Role::Writer);
  EXPECT_EQ(s.events[1].role, Role::Reader);
  EXPECT_EQ(s.events[1].object, 2);
  EXPECT_EQ(s.events[2].role, Role::Writer);
  EXPECT_EQ(s.events[3].role, Role::Reader);
  EXPECT_EQ(s.events[3].object, 1);
  EXPECT_EQ(s.events[4].role, Role::Object);
  const std::string text = emit_scenario(s);
  EXPECT_NE(text.find("role=writer"), std::string::npos);
  EXPECT_NE(text.find("role=reader idx=2"), std::string::npos);
  const auto again = parse_scenario(text);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.scenario, s);
  EXPECT_EQ(emit_scenario(again.scenario), text);
}

// Semantic range errors name the offending fault line, not the end of the
// file -- even when the budget directive (which fixes S and R) comes after
// the fault lines, and even when an earlier fault line is fine.
TEST(ScenarioDsl, RangeErrorsNameTheOffendingLine) {
  {
    const auto parsed = parse_scenario(
        "scenario safe des name=bad\n"       // line 1
        "fault crash obj=1 at=5\n"             // line 2 (in range)
        "fault hold objs=0,9 at=5 dur=10\n"    // line 3: object 9 of S=3
        "budget t=1 b=0 readers=2\n"
        "runseed 1\n");
    ASSERT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("line 3"), std::string::npos) << parsed.error;
  }
  {
    const auto parsed = parse_scenario(
        "scenario safe des name=bad\n"
        "budget t=1 b=0 readers=2\n"
        "fault gray role=reader idx=5 slow=2 at=5\n"  // line 3: R=2
        "runseed 1\n");
    ASSERT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("line 3"), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find("reader"), std::string::npos) << parsed.error;
  }
  {
    const auto parsed = parse_scenario(
        "scenario safe des name=bad\n"
        "budget t=1 b=1 readers=2\n"
        "fault byz obj=0\n"
        "fault byz obj=1\n"  // line 4: the (b+1)-th byz is the error
        "runseed 1\n");
    ASSERT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("line 4"), std::string::npos) << parsed.error;
  }
}

}  // namespace
}  // namespace rr::harness
