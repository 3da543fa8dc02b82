// Seeded scenario fuzzer + coverage accountant over the scenario DSL.
//
// The committed .scn library (harness/scenario_dsl.hpp) samples the
// paper's adversary space -- up to t faulty base objects, up to b of them
// Byzantine, plus scheduler-controlled asynchrony -- at a handful of
// human-chosen points. ScenarioFuzzer, the one scenario generator, turns
// that into an open-ended search: it generates well-formed Scenario structs
// that respect the declared (t, b) budget *by construction* -- at most b
// Byzantine objects, crashes on distinct objects so that Byzantine plus
// crashed stays within t -- plus up to three extras drawn from the rows of
// the fault-primitive table (harness/primitives.hpp) that have a fuzz draw
// and run on the cell's backend. So every generated cell must pass -- any
// failure is a protocol or harness bug, and it feeds the existing ddmin
// shrinker and is emitted as a committed-ready .scn fixture automatically.
//
// Determinism contract: generate(i) is a pure function of (options().seed,
// i). No wall clock, no global state; the same (seed, count) yields the
// same scenarios, cell keys, verdicts and DES fingerprints across runs,
// machines and worker counts. Every scenario round-trips bit-identically
// through emit_scenario/parse_scenario (tests/test_fuzz.cpp pins both
// properties over 10k scenarios).
//
// The "overload" knob deliberately breaks the budget (t+1 crashes timed to
// strand later operations) for a seeded fraction of cells; those carry
// expect_ok = false and are counted separately, exercising the
// failure-detection path without turning the lane red.
//
// CoverageMatrix is the accountant behind `sweep_cli --coverage`: it folds
// scenario sets (the committed library, the fixtures, a fuzz batch) into a
// primitive x protocol count table (one row per row of the primitive
// table) and names the model-legal cells nothing exercises
// (tests/test_coverage.cpp pins that the committed library leaves none).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"

namespace rr::harness {

/// Knobs of one fuzz batch. Everything that shapes generation is in here,
/// so a batch is replayable from {seed, count} plus the explicit options.
struct FuzzOptions {
  std::uint64_t seed{1};
  int count{100};
  /// Protocol / backend pools to draw from; empty = every registered
  /// protocol / both backends.
  std::vector<Protocol> protocols;
  std::vector<BackendKind> backends;
  /// Fraction of cells generated as deliberate budget violations (t+1
  /// crashes, expect_ok = false, DES-only so the stall is deterministic).
  double overload_rate{0.0};
  /// Check every generated scenario against these semantics instead of the
  /// protocol's own promise. A *stronger* override (Atomic on a safe
  /// protocol) is the supported way to inject known-bad cells end-to-end;
  /// tests use it to pin the auto-fixture pipeline.
  std::optional<Semantics> check_override{};
  /// Where failing cells' .scn fixtures go ("" = don't write); see
  /// write_fixtures().
  std::string fixture_dir;
};

class ScenarioFuzzer {
 public:
  explicit ScenarioFuzzer(FuzzOptions opts);

  [[nodiscard]] const FuzzOptions& options() const { return opts_; }

  /// The `index`-th scenario of the batch: a pure function of
  /// (options().seed, index). Always parse-legal, always round-trips.
  [[nodiscard]] Scenario generate(std::uint64_t index) const;

  /// generate(0 .. count-1).
  [[nodiscard]] std::vector<Scenario> batch() const;

 private:
  FuzzOptions opts_;
};

/// Outcome of one fuzz batch (run_fuzz).
struct FuzzResult {
  SweepReport report;               ///< one cell per generated scenario
  std::vector<Scenario> scenarios;  ///< batch, index order
  int overload_cells{0};            ///< cells generated with expect_ok=false
  /// Keys of cells whose verdict differed from the expectation -- for a
  /// green lane this must be empty (overload cells that stall as designed
  /// are *expected* and do not appear here).
  std::vector<std::string> unexpected;
  std::vector<std::string> fixtures;  ///< .scn paths written to fixture_dir
};

/// Writes a fixture into `dir` for each of the sweep's `scenarios` that
/// failed although expected to pass: "<name>.scn" (the full scenario,
/// expect fail) and, when the engine shrank it, "<name>.min.scn" (the
/// 1-minimal schedule). Both replay the failure standalone. Returns the
/// paths written.
[[nodiscard]] std::vector<std::string> write_fixtures(
    const std::vector<Scenario>& scenarios, const SweepReport& report,
    const std::string& dir);

/// Generates the batch, runs it as a sweep (the engine shrinks failing DES
/// cells), and writes fixtures for unexpected failures into
/// opts.fixture_dir.
[[nodiscard]] FuzzResult run_fuzz(const FuzzOptions& opts, int workers = 0);

/// Primitive x protocol x budget accountant over scenario sets.
struct CoverageMatrix {
  /// counts[primitive][protocol cli_name] = number of fault events.
  std::map<std::string, std::map<std::string, int>> counts;
  std::set<std::pair<int, int>> budgets;  ///< (t, b) pairs seen
  int scenarios_seen{0};

  void add(const Scenario& s);
  void add_all(const std::vector<Scenario>& scenarios);

  /// Model-legal primitive x protocol cells with no event, as
  /// "<primitive> x <protocol>" strings ("byz" is skipped for protocols
  /// whose resilience recipe forces b = 0). Empty = full coverage.
  [[nodiscard]] std::vector<std::string> missing() const;

  /// Human-readable count table (protocol columns, primitive rows), plus
  /// the budget list and the gate verdict.
  [[nodiscard]] std::string table() const;
};

}  // namespace rr::harness
