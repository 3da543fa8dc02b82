// Deterministic scenario sweep engine.
//
// A sweep is a list of Scenarios -- each loaded from a .scn file
// (harness/scenario_dsl.hpp, docs/SCENARIO_DSL.md) or generated by the
// seeded ScenarioFuzzer (harness/fuzz.hpp) -- run concurrently on a thread
// pool (one private Deployment, hence one private sim::World, per cell: the
// DES is single-threaded-deterministic, so N worlds saturate N cores). The
// per-cell verdicts aggregate into a SweepReport (history-checker pass/fail,
// liveness, NetStats, latency p95, and on the DES a golden schedule
// fingerprint).
//
// A Scenario is fully explicit: protocol, backend, budget, workload, fault
// events and one deployment seed (`run_seed`). Each fault event applies
// through its row of the fault-primitive table (harness/primitives.hpp):
// into the DeploymentOptions at construction, or as timed edges posted on
// the Backend before the run. Running a scenario depends on nothing else,
// never on worker count or execution order, so any cell -- in particular
// any *failing* cell -- replays by its name (sweep_cli --replay NAME), and
// the JSON report carries each unexpected failure's scenario as DSL text
// that replays on its own. DES cells replay bit-identically (same
// fingerprint); threads and net cells replay the same schedule under
// genuine wall-clock nondeterminism.
//
// When a cell fails, the engine re-runs it under a ddmin fault-plan
// shrinker (Zeller's delta debugging over the event list: try chunks, then
// chunk complements, refine granularity until 1-minimal). The result is a
// minimal failing schedule (removing any single remaining event makes the
// failure disappear) small enough to read, with the same seed.
//
// Each scenario carries an expected verdict (`expect_ok`), so a committed
// shrinker-emitted failure file, or a fuzzer cell that deliberately
// exceeds the crash budget, counts as *passing* when it still fails the
// same way. A scenario with a wall-clock deadline (`max_wall_ms`) ends a
// threads or net stall as a liveness verdict instead of aborting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/byzantine.hpp"
#include "harness/backend.hpp"
#include "harness/protocol.hpp"
#include "harness/workload.hpp"
#include "net/stats.hpp"

namespace rr::harness {

/// One discrete, independently droppable fault of a scenario's schedule.
/// The shrinker works at this granularity. Kind and role pick the event's
/// row of the fault-primitive table (harness/primitives.hpp), which names
/// the fields that kind uses; emit_fault() (harness/scenario_dsl.hpp)
/// prints the event as its DSL `fault` line.
struct FaultEvent {
  enum class Kind {
    Byzantine,
    Crash,
    Hold,
    PartitionIn,
    PartitionOut,
    Flap,
    Gray,
    Skew,
    Loss,
    Duplicate,
    Reorder,
  };

  Kind kind{Kind::Crash};
  /// Gray/Skew may target a client role instead of a base object -- clients
  /// are the processes that read clocks, so they are the other half of the
  /// model's "no process may rely on local timing" clause. Role::Writer hits
  /// every shard's writer; Role::Reader hits reader `object` of every shard.
  /// All other kinds require the default Role::Object.
  Role role{Role::Object};
  int object{0};  ///< Byzantine/Crash/Gray/Skew: object index, or (for
                  ///< role=reader faults) the reader index
  adversary::StrategyKind strategy{adversary::StrategyKind::Silent};
  Time at{0};        ///< Crash: crash time; windowed kinds: window start
  Time duration{0};  ///< window length (0 = open-ended where legal)
  /// Hold/Partition*/Flap: object indices isolated together (empty = every
  /// object). Loss/Duplicate/Reorder: scope -- only channels adjacent to
  /// one of these objects are faulty (empty = every channel).
  std::vector<int> held;
  double rate{0};      ///< Loss/Duplicate/Reorder p; Gray factor; Flap duty
  Time period{0};      ///< Flap cycle length; Reorder extra delay
  Time jitter{0};      ///< Flap: max seeded forward shift per edge
  std::int64_t skew{0};  ///< Skew: signed clock offset

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// One sweep cell: everything needed to run it, and nothing that depends
/// on where or when it runs.
struct Scenario {
  Protocol protocol{Protocol::Safe};
  BackendKind backend{BackendKind::Sim};

  int t{2};
  int b{1};
  int readers{2};
  int shards{1};
  int writes{6};
  int reads_per_reader{4};
  Time write_gap{5'000};
  Time read_gap{3'000};

  /// Check against these semantics instead of the protocol's promise. A
  /// *stronger* override (e.g. Atomic on a safe protocol) is the other
  /// supported way to deliberately inject checker violations.
  std::optional<Semantics> check_override{};

  std::vector<FaultEvent> events;

  /// The cell's address: a .scn file's name (its stem by default) or the
  /// fuzzer's "fuzz-<seed>-<index>".
  std::string name;
  /// The verdict this scenario is expected to produce. Committed shrinker
  /// fixtures set false: the cell *passes* when the failure reproduces.
  bool expect_ok{true};
  /// Threads cells: bounded run deadline in wall-clock ms (0 = none). With
  /// a deadline, non-quiescence becomes a liveness verdict, not an abort.
  std::uint64_t max_wall_ms{0};
  /// The deployment RNG seed, the scenario's only seed: delays, link-fault
  /// draws, flap jitter and open-loop arrivals all fold from it.
  std::uint64_t run_seed{1};
  /// Regular-object history retention (Regular / RegularOptimized only):
  /// hard cap on retained slots (0 = unlimited) and the ack-driven
  /// watermark GC toggle. See DeploymentOptions::history_limit/history_gc.
  std::size_t history_limit{0};
  bool history_gc{true};
  /// Open-loop workload (docs/WORKLOADS.md): any arrival other than Closed
  /// replaces the chained mixed workload with the open-loop engine -- the
  /// fields below size its population and horizon. Closed (the default)
  /// keeps the chained writes/reads_per_reader/gap workload.
  ArrivalKind arrival{ArrivalKind::Closed};
  std::uint64_t clients{256};
  Time think{50'000};        ///< mean per-client think time (clock units)
  Time horizon{100'000};     ///< arrival-generation window length
  double write_fraction{0.1};
  /// Windowed streaming checker (0 = classic batch checker). Nonzero turns
  /// on online verify-and-retire with O(window) checker memory; verdicts
  /// and fingerprints match batch mode bit-for-bit.
  std::size_t checker_window{0};

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Per-cell outcome. A cell is OK iff the history checker passes AND every
/// invoked operation completed (wait-freedom within the budget).
struct CellVerdict {
  std::string name;
  Protocol protocol{Protocol::Safe};
  BackendKind backend{BackendKind::Sim};

  bool ok{false};
  /// The scenario's expected verdict; a cell counts as failed when
  /// ok != expect_ok.
  bool expect_ok{true};
  int violations{0};
  std::string first_violation;  ///< empty when the checker passed
  int ops_complete{0};
  int ops_stuck{0};
  std::uint64_t events{0};  ///< DES events / threads messages delivered
  net::NetStats net{};
  Time write_p95{0};  ///< backend clock units (virtual ns on the DES)
  Time read_p95{0};
  /// DES cells: hash of (schedule fingerprint, per-shard histories,
  /// NetStats). Bit-identical across runs and worker counts for the same
  /// scenario. 0 on the threads and net backends (nondeterministic).
  std::uint64_t fingerprint{0};
  /// Checker residency: peak resident (unretired) ops of the largest shard
  /// and total ops retired online. Batch cells: peak is the largest shard
  /// history, retired is 0. Not folded into the fingerprint (observability,
  /// not semantics).
  std::uint64_t hist_peak_live{0};
  std::uint64_t hist_retired{0};
  double wall_ms{0};
};

/// Outcome of ddmin-shrinking one failing cell.
struct ShrinkResult {
  std::string name;         ///< the failing cell's address
  int original_events{0};   ///< fault events before shrinking
  int reruns{0};            ///< scenario re-executions the shrinker spent
  Scenario minimal;         ///< minimal failing schedule (same cell, fewer events)
  std::string first_violation;  ///< of the minimal schedule's run
};

struct SweepReport {
  std::vector<CellVerdict> cells;  ///< plan order
  std::vector<ShrinkResult> shrinks;
  int failed{0};
  int workers{0};
  double wall_ms{0};

  [[nodiscard]] bool all_ok() const { return failed == 0; }
};

class SweepEngine {
 public:
  /// The sweep's cells, in report order.
  explicit SweepEngine(std::vector<Scenario> scenarios);

  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return scenarios_;
  }

  /// The cell called `name`; nullptr when there is none.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// Runs one scenario to completion in the calling thread.
  [[nodiscard]] static CellVerdict run_cell(const Scenario& s);

  /// ddmin fault-plan shrinker. Requires run_cell(s) to fail; returns a
  /// 1-minimal failing schedule (dropping any single remaining event makes
  /// the failure disappear).
  [[nodiscard]] static ShrinkResult shrink(const Scenario& s);

  /// Runs every cell on `workers` threads (0 = hardware concurrency),
  /// then shrinks the first few unexpectedly failing DES cells (threads
  /// and net failures are reported unshrunk: their schedules do not
  /// replay deterministically). DES cell verdicts are bit-identical
  /// across runs and worker counts; threads cells are genuine wall-clock
  /// runs whose timing-derived fields (events, NetStats, p95, wall_ms)
  /// vary between executions.
  [[nodiscard]] SweepReport run(int workers = 0) const;

  /// Writes BENCH_scenario_sweep-style JSON for `report`, a report of this
  /// engine's run(): one row per cell, and for each unexpected verdict the
  /// scenario as DSL text (the shrunk one when the engine shrank it), which
  /// replays on its own as a .scn file. Returns false on I/O error.
  bool write_json(const SweepReport& report, const std::string& path) const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace rr::harness
