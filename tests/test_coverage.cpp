// Coverage gate over the committed scenario library: scenarios/ must
// exercise every model-legal fault primitive on every protocol family, and
// a gap fails with the missing cell spelled out (so the failure says what
// scenario to write, not just that one is absent). The same accountant
// backs `sweep_cli --coverage --check` in CI.
#include "harness/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/scenario_dsl.hpp"

namespace rr::harness {
namespace {

std::vector<Scenario> load_dir(const std::string& dir) {
  std::vector<Scenario> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    const auto parsed = load_scenario_file(entry.path().string());
    EXPECT_TRUE(parsed.ok) << entry.path() << ": " << parsed.error;
    if (parsed.ok) out.push_back(parsed.scenario);
  }
  return out;
}

// The pin: every model-legal primitive x protocol cell is exercised by the
// committed library alone (fixtures and fuzz batches only add on top). A
// red run here names the exact cell a deleted or edited scenario vacated.
TEST(Coverage, CommittedLibraryCoversEveryModelLegalCell) {
  CoverageMatrix matrix;
  matrix.add_all(load_dir(std::string(RR_SOURCE_DIR) + "/scenarios"));
  ASSERT_GT(matrix.scenarios_seen, 0);
  const auto gaps = matrix.missing();
  EXPECT_TRUE(gaps.empty()) << gaps.size()
                            << " uncovered cell(s), first: " << gaps.front();
}

// missing() names cells as "<primitive> x <protocol>", skips byz for
// protocols whose resilience recipe forces b = 0 (abd), and never lists
// primitives outside the channel model (loss, dup).
TEST(Coverage, MissingCellsAreNamedAndModelLegalOnly) {
  const auto parsed = parse_scenario(
      "scenario safe des name=only-crash\n"
      "runseed 1\n"
      "fault crash obj=0 at=5\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  CoverageMatrix matrix;
  matrix.add(parsed.scenario);

  const auto gaps = matrix.missing();
  ASSERT_FALSE(gaps.empty());
  const auto has = [&gaps](const std::string& cell) {
    return std::find(gaps.begin(), gaps.end(), cell) != gaps.end();
  };
  EXPECT_TRUE(has("byz x safe"));
  EXPECT_TRUE(has("crash x abd"));  // one scenario covers one protocol only
  EXPECT_FALSE(has("crash x safe"));
  EXPECT_FALSE(has("byz x abd"));   // abd is crash-only by construction
  EXPECT_FALSE(has("loss x safe"));
  EXPECT_FALSE(has("dup x safe"));
}

// table() renders every protocol column and primitive row, reports the
// budgets seen, and carries the gate verdict in prose.
TEST(Coverage, TableListsProtocolsPrimitivesAndVerdict) {
  CoverageMatrix matrix;
  matrix.add_all(load_dir(std::string(RR_SOURCE_DIR) + "/scenarios"));
  const std::string table = matrix.table();
  for (const char* token :
       {"safe", "regular-opt", "abd", "polling", "fastwrite", "auth",
        "gray-client", "skew-client", "reorder", "budgets:", "complete"}) {
    EXPECT_NE(table.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace rr::harness
