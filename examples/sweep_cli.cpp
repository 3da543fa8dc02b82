// Scenario sweep CLI: run a list of scenarios -- committed .scn files and
// seeded fuzz batches -- in parallel, shrink any unexpected failure to a
// minimal schedule, and replay any cell by its name.
//
//   $ ./sweep_cli --fuzz seed=1 count=1008 --protocols=safe,regular,abd
//       (the CI batch: 1008 generated cells, all of which must pass)
//   $ ./sweep_cli --fuzz seed=8 count=50 overload=0.1 fixtures=fuzz-failures/
//       (overload cells break the budget on purpose and must fail;
//        unexpected failures shrink into replayable .scn fixtures)
//   $ ./sweep_cli --scenarios scenarios/              # the scenario library
//   $ ./sweep_cli --scenario tests/fixtures/scenarios/foo.scn
//   $ ./sweep_cli --fuzz seed=1 count=1008 --replay fuzz-1-42
//   $ ./sweep_cli --scenarios scenarios/ --replay legacy-chaos
//       (re-run one cell by name; --emit-scenario FILE exports it --
//        shrunk first when it fails unexpectedly on the DES -- as a file)
//   $ ./sweep_cli --coverage --scenarios scenarios,tests/fixtures/scenarios
//       (the primitive x protocol x budget matrix those files exercise)
//
// Writes BENCH_scenario_sweep.json with per-cell verdicts and, for every
// unexpected failure, the minimal fault schedule as DSL `fault` lines plus
// the --replay flag reproducing it. Exits 1 when any cell's verdict differs
// from its expectation (a .scn file's "expect" line; fuzz overload cells
// expect to fail), 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "harness/fuzz.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

namespace {

using namespace rr;

std::string protocol_list() {
  std::string out;
  for (const auto& traits : harness::protocol_registry()) {
    if (!out.empty()) out += "|";
    out += traits.cli_name;
  }
  return out;
}

std::vector<std::string> split_commas(const std::string& in) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= in.size()) {
    const auto comma = in.find(',', start);
    out.push_back(in.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parses all of `text` as a number: false on an empty string or any
/// stray character, so a typo is a usage error, never a silent default.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

void usage() {
  std::printf(
      "usage: sweep_cli [--scenarios DIR[,DIR...]]\n"
      "  [--fuzz [seed=K] [count=N] [overload=RATE] [fixtures=DIR]]\n"
      "  [--protocols=%s|all,...] [--backends=des,threads,net|both|all]\n"
      "  [--check=safe|regular|atomic] [--jobs=N] [--json=PATH] [--check]\n"
      "  [--replay NAME] [--emit-scenario FILE] [--scenario FILE]\n"
      "  [--coverage]\n"
      "A sweep is the *.scn files of --scenarios plus the --fuzz batch:\n"
      "count=N (>= 1) generated cells from seed=K, a fraction overload=RATE\n"
      "(in [0, 1]) of them deliberate budget violations that must fail.\n"
      "--protocols/--backends/--check=SEM scope the fuzz batch. Unexpected\n"
      "failures shrink and, with fixtures=DIR, land there as replayable .scn\n"
      "files. --check exits by verdict without writing the JSON. --jobs=N\n"
      "runs N workers (0 = every core). --replay NAME re-runs one cell of\n"
      "the sweep; with --emit-scenario it writes the cell (shrunk first when\n"
      "it fails on the DES) as a scenario file. --scenario FILE replays one\n"
      "file. --coverage prints the fault-primitive x protocol matrix of the\n"
      "sweep's scenarios without running them; with --check it exits 1 on\n"
      "any missing model-legal cell.\n",
      protocol_list().c_str());
}

int replay(const harness::Scenario& scenario, const std::string& emit_path) {
  std::printf("replaying %s: %d writes, %dx%d reads, %d shard%s, "
              "%zu fault event(s)\n",
              scenario.name.c_str(), scenario.writes, scenario.readers,
              scenario.reads_per_reader, scenario.shards,
              scenario.shards == 1 ? "" : "s", scenario.events.size());
  for (const auto& ev : scenario.events) {
    std::printf("  %s\n", harness::emit_fault(ev).c_str());
  }
  const auto verdict = harness::SweepEngine::run_cell(scenario);
  std::printf("verdict: %s; %d ops complete, %d stuck, %llu events, "
              "fingerprint %016llx\n",
              verdict.ok ? "OK" : "FAIL", verdict.ops_complete,
              verdict.ops_stuck,
              static_cast<unsigned long long>(verdict.events),
              static_cast<unsigned long long>(verdict.fingerprint));
  if (verdict.hist_retired > 0) {
    std::printf("checker residency: peak %llu op(s) live, %llu retired "
                "online (window=%zu)\n",
                static_cast<unsigned long long>(verdict.hist_peak_live),
                static_cast<unsigned long long>(verdict.hist_retired),
                scenario.checker_window);
  }
  const bool unexpected = verdict.ok != scenario.expect_ok;
  if (!verdict.ok) {
    std::printf("failure%s: %s\n", unexpected ? "" : " (expected)",
                verdict.first_violation.c_str());
  }

  harness::Scenario to_emit = scenario;
  // Expected failures (committed fixtures) are already minimal; only an
  // unexpected failure is worth shrinking.
  if (unexpected && !verdict.ok &&
      scenario.backend == harness::BackendKind::Sim &&
      !scenario.events.empty()) {
    const auto shrunk = harness::SweepEngine::shrink(scenario);
    std::printf("minimal failing schedule (%d -> %zu events, %d reruns):\n",
                shrunk.original_events, shrunk.minimal.events.size(),
                shrunk.reruns);
    for (const auto& ev : shrunk.minimal.events) {
      std::printf("  %s\n", harness::emit_fault(ev).c_str());
    }
    std::printf("  failure: %s\n", shrunk.first_violation.c_str());
    to_emit = shrunk.minimal;
  }
  if (!emit_path.empty()) {
    // A failing cell is exported as a fixture: a file that *passes* the
    // library run exactly when the failure keeps reproducing.
    if (!verdict.ok) to_emit.expect_ok = false;
    if (!harness::save_scenario_file(to_emit, emit_path)) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", emit_path.c_str());
  }
  return unexpected ? 1 : 0;
}

/// Prints verdicts per protocol x backend, every unexpected cell, and each
/// shrunk schedule as DSL lines that paste into a .scn file.
void print_report(const harness::SweepReport& report) {
  harness::Table table({"protocol", "backend", "cells", "pass",
                        "expected-fail", "unexpected", "stuck-ops",
                        "avg-events", "read p95 us (max)"});
  for (const auto& traits : harness::protocol_registry()) {
    for (const auto& bt : harness::backend_registry()) {
      int cells = 0, pass = 0, reproduced = 0, unexpected = 0, stuck = 0;
      std::uint64_t events = 0, p95_max = 0;
      for (const auto& c : report.cells) {
        if (c.protocol != traits.id || c.backend != bt.kind) continue;
        ++cells;
        if (c.ok != c.expect_ok) {
          ++unexpected;
        } else if (c.ok) {
          ++pass;
        } else {
          ++reproduced;
        }
        stuck += c.ops_stuck;
        events += c.events;
        p95_max = std::max<std::uint64_t>(p95_max, c.read_p95);
      }
      if (cells == 0) continue;
      table.add_row(traits.cli_name, bt.name, cells, pass, reproduced,
                    unexpected, stuck,
                    events / static_cast<std::uint64_t>(cells),
                    static_cast<double>(p95_max) / 1000.0);
    }
  }
  table.print();
  for (const auto& c : report.cells) {
    if (c.ok == c.expect_ok) continue;
    std::printf("  UNEXPECTED %s (expect %s): %s\n", c.name.c_str(),
                c.expect_ok ? "ok" : "fail",
                c.ok ? "passed" : c.first_violation.c_str());
  }
  for (const auto& shrunk : report.shrinks) {
    std::printf("\nfailing cell %s: %d fault event(s) shrunk to %zu "
                "(%d reruns); replay with: --replay %s\n",
                shrunk.name.c_str(), shrunk.original_events,
                shrunk.minimal.events.size(), shrunk.reruns,
                shrunk.name.c_str());
    for (const auto& ev : shrunk.minimal.events) {
      std::printf("  %s\n", harness::emit_fault(ev).c_str());
    }
    std::printf("  failure: %s\n", shrunk.first_violation.c_str());
  }
  std::printf("%d/%zu cells failed in %.1f ms on %d workers\n", report.failed,
              report.cells.size(), report.wall_ms, report.workers);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<harness::Scenario> scenarios;
  harness::FuzzOptions fuzz;
  std::string replay_name;
  std::string scenario_file;
  std::vector<std::string> scenario_dirs;
  std::string emit_path;
  std::string json_path = "BENCH_scenario_sweep.json";
  int jobs = 0;
  bool check_mode = false;
  bool fuzz_mode = false;
  bool coverage_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--replay" && i + 1 < argc) {
      replay_name = argv[++i];
    } else if (auto v = value("replay")) {
      replay_name = *v;
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_file = argv[++i];
    } else if (auto v = value("scenario")) {
      scenario_file = *v;
    } else if (arg == "--scenarios" && i + 1 < argc) {
      scenario_dirs = split_commas(argv[++i]);
    } else if (auto v = value("scenarios")) {
      scenario_dirs = split_commas(*v);
    } else if (arg == "--fuzz") {
      fuzz_mode = true;
    } else if (arg == "--coverage") {
      coverage_mode = true;
    } else if (fuzz_mode && arg.rfind("--", 0) != 0 &&
               arg.find('=') != std::string::npos) {
      // --fuzz sub-arguments: bare key=value tokens.
      const auto eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      const std::string val = arg.substr(eq + 1);
      const char* want = nullptr;
      if (key == "seed") {
        if (!parse_number(val, &fuzz.seed)) want = "an unsigned integer";
      } else if (key == "count") {
        if (!parse_number(val, &fuzz.count) || fuzz.count < 1) {
          want = "an integer >= 1";
        }
      } else if (key == "overload") {
        if (!parse_number(val, &fuzz.overload_rate) ||
            !(fuzz.overload_rate >= 0 && fuzz.overload_rate <= 1)) {
          want = "a rate in [0, 1]";
        }
      } else if (key == "fixtures") {
        fuzz.fixture_dir = val;
      } else {
        std::fprintf(stderr,
                     "unknown --fuzz key '%s' (seed|count|overload|"
                     "fixtures)\n",
                     key.c_str());
        return 2;
      }
      if (want != nullptr) {
        std::fprintf(stderr, "bad --fuzz %s: want %s\n", arg.c_str(), want);
        return 2;
      }
    } else if (arg == "--emit-scenario" && i + 1 < argc) {
      emit_path = argv[++i];
    } else if (auto v = value("emit-scenario")) {
      emit_path = *v;
    } else if (arg == "--check") {
      check_mode = true;
    } else if (auto v = value("protocols")) {
      for (const auto& name : split_commas(*v)) {
        if (name == "all") {
          for (const auto& traits : harness::protocol_registry()) {
            fuzz.protocols.push_back(traits.id);
          }
          continue;
        }
        const auto p = harness::protocol_from_name(name);
        if (!p) {
          std::fprintf(stderr, "unknown protocol '%s' (known: %s)\n",
                       name.c_str(), protocol_list().c_str());
          return 2;
        }
        fuzz.protocols.push_back(*p);
      }
    } else if (auto v = value("backends")) {
      for (const auto& name : split_commas(*v)) {
        if (name == "both") {
          // Historical spelling for the two original substrates; "all"
          // follows the registry (currently adds the net backend).
          fuzz.backends.push_back(harness::BackendKind::Sim);
          fuzz.backends.push_back(harness::BackendKind::Threads);
        } else if (name == "all") {
          for (const auto& t : harness::backend_registry()) {
            fuzz.backends.push_back(t.kind);
          }
        } else if (const auto kind = harness::backend_from_name(name)) {
          fuzz.backends.push_back(*kind);
        } else {
          std::fprintf(stderr, "unknown backend '%s' (%s|both|all)\n",
                       name.c_str(), harness::backend_names().c_str());
          return 2;
        }
      }
    } else if (auto v = value("check")) {
      if (*v == "safe") fuzz.check_override = harness::Semantics::Safe;
      else if (*v == "regular") fuzz.check_override = harness::Semantics::Regular;
      else if (*v == "atomic") fuzz.check_override = harness::Semantics::Atomic;
      else {
        std::fprintf(stderr, "unknown semantics '%s' (safe|regular|atomic)\n",
                     v->c_str());
        return 2;
      }
    } else if (auto v = value("jobs")) {
      if (!parse_number(*v, &jobs) || jobs < 0) {
        std::fprintf(stderr, "bad %s: want an integer >= 0\n", arg.c_str());
        return 2;
      }
    } else if (auto v = value("json")) {
      json_path = *v;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (!scenario_file.empty()) {
    const auto parsed = harness::load_scenario_file(scenario_file);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", scenario_file.c_str(),
                   parsed.error.c_str());
      return 2;
    }
    return replay(parsed.scenario, emit_path);
  }

  for (const auto& dir : scenario_dirs) {
    const auto lib = harness::load_scenario_dir(dir);
    for (const auto& err : lib.errors) {
      std::fprintf(stderr, "%s\n", err.c_str());
    }
    if (!lib.ok()) return 2;
    if (lib.scenarios.empty()) {
      std::fprintf(stderr, "no *.scn files in %s\n", dir.c_str());
      return 2;
    }
    scenarios.insert(scenarios.end(), lib.scenarios.begin(),
                     lib.scenarios.end());
  }
  if (fuzz_mode) {
    for (auto& s : harness::ScenarioFuzzer(fuzz).batch()) {
      scenarios.push_back(std::move(s));
    }
  } else if (!fuzz.protocols.empty() || !fuzz.backends.empty() ||
             fuzz.check_override) {
    std::fprintf(stderr,
                 "--protocols, --backends and --check=SEM scope a --fuzz "
                 "batch; give --fuzz\n");
    return 2;
  }

  if (coverage_mode) {
    // Static accounting: which primitive x protocol x budget cells do the
    // sweep's scenarios touch?
    harness::CoverageMatrix matrix;
    matrix.add_all(scenarios);
    std::printf("%s", matrix.table().c_str());
    return check_mode && !matrix.missing().empty() ? 1 : 0;
  }
  if (scenarios.empty()) {
    usage();
    return 2;
  }

  const harness::SweepEngine engine(std::move(scenarios));
  if (!replay_name.empty()) {
    const harness::Scenario* scenario = engine.find(replay_name);
    if (scenario == nullptr) {
      std::fprintf(stderr,
                   "no cell named '%s' in this sweep (give the --scenarios "
                   "or --fuzz flags that produced it)\n",
                   replay_name.c_str());
      return 2;
    }
    return replay(*scenario, emit_path);
  }

  std::printf("sweeping %zu cell(s)", engine.scenarios().size());
  if (fuzz_mode) {
    std::printf(" (fuzz batch: seed %llu, count %d, overload rate %.2f)",
                static_cast<unsigned long long>(fuzz.seed), fuzz.count,
                fuzz.overload_rate);
  }
  std::printf("\n");
  const auto report = engine.run(jobs);
  print_report(report);

  if (!fuzz.fixture_dir.empty() && report.failed > 0) {
    for (const auto& path :
         harness::write_fixtures(engine.scenarios(), report,
                                 fuzz.fixture_dir)) {
      std::printf("  fixture: %s\n", path.c_str());
    }
  }
  // --check: verdicts only (e.g. the CI scenario-library smoke); don't
  // clobber the BENCH JSON artifact.
  if (!check_mode) {
    if (!harness::SweepEngine::write_json(report, json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.all_ok() ? 0 : 1;
}
