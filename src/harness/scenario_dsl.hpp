// Scenario DSL: a line-oriented text format for sweep scenarios.
//
// A .scn file is a complete, explicit harness::Scenario -- protocol,
// backend, budget, workload, semantics check, expected verdict, and the
// fault schedule, one fault per line:
//
//   # lost quorum: three crashes exceed t = 2
//   scenario safe des name=lost-quorum
//   budget t=2 b=1 readers=2
//   workload writes=5 reads=3 write_gap=4000 read_gap=2500 shards=1
//   expect fail
//   runseed 7
//   fault crash obj=0 at=5000
//   fault crash obj=2 at=11000
//   fault crash obj=4 at=8000
//
// Times accept ns (default), us, ms and s suffixes on input; the emitter
// always writes canonical integer nanoseconds (the backend clock unit), so
// parse -> emit -> parse is the identity on both the text's meaning and the
// Scenario struct -- and therefore on the DES fingerprint
// (tests/test_scenario_dsl.cpp pins the round-trip property).
//
// `runseed` is required: it is the scenario's one seed, so a file replays
// on its own. The full grammar, the fault-primitive reference, and which
// primitives step outside the paper's reliable-channel model live in
// docs/SCENARIO_DSL.md. Scenario files enter a sweep as SweepEngine cells
// (sweep_cli --scenarios DIR); the shrinker emits its minimal failing
// schedules in this format (sweep_cli --emit-scenario) so they can be
// committed as regression fixtures.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/sweep.hpp"

namespace rr::harness {

/// Outcome of parsing one scenario text. On failure `error` names the
/// offending line ("line 4: unknown fault kind 'flip'") and the scenario's
/// fields are unspecified.
struct ScenarioParseResult {
  bool ok{false};
  Scenario scenario;
  std::string error;
};

/// Parses one scenario from DSL text. Defaults are resolved here (e.g. a
/// flap without period= gets the canonical 20'000 ns), so emitting the
/// result reproduces every effective value explicitly.
[[nodiscard]] ScenarioParseResult parse_scenario(std::string_view text);

/// Emits the canonical DSL text for a scenario: every effective field
/// explicit, times in integer nanoseconds, doubles in shortest-round-trip
/// form. parse_scenario(emit_scenario(s)) == s for any parse result s.
[[nodiscard]] std::string emit_scenario(const Scenario& s);

/// One fault event as its canonical `fault ...` line (no newline), the
/// line emit_scenario() writes for it: a printed schedule pastes straight
/// into a .scn file.
[[nodiscard]] std::string emit_fault(const FaultEvent& ev);

/// File convenience wrappers. load reports I/O failures through `error`;
/// save returns false on I/O failure.
[[nodiscard]] ScenarioParseResult load_scenario_file(const std::string& path);
[[nodiscard]] bool save_scenario_file(const Scenario& s,
                                      const std::string& path);

/// Every *.scn file of a directory, in filename order (so library cell
/// order -- and hence sweep report order -- is stable across platforms).
struct ScenarioLibrary {
  std::vector<Scenario> scenarios;
  std::vector<std::string> errors;  ///< "<path>: <error>" per rejected file

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

[[nodiscard]] ScenarioLibrary load_scenario_dir(const std::string& dir);

}  // namespace rr::harness
