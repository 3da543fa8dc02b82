// The fault-primitive table: the one place each fault primitive is defined.
//
// The paper's adversary -- up to t of the S base objects faulty, b of them
// Byzantine, over reliable asynchronous channels whose delays the scheduler
// picks -- is sampled by the primitives below, one row per coverage label.
// A row holds everything the harness knows about its primitive: the DSL
// word and keys in emit order, the budget rule, the backends that support
// it, whether it stays inside the paper's model, how it applies to a cell
// and how the fuzzer draws it. The DSL parser and emitter, the sweep's
// fault applier, the fuzzer's extras pool and the coverage matrix are loops
// over these rows, and docs/SCENARIO_DSL.md's primitive table is checked
// against them (ScenarioDsl.DocTableMatchesPrimitiveTable). Adding a
// primitive is one row in primitives.cpp plus the Backend method it needs.
//
// Twin rows share a DSL word: `partition` is partition-in or partition-out
// by its dir= tag, and `gray`/`skew` count as gray-client/skew-client when
// they target a client role instead of an object -- clients are the other
// half of the model's timing clause, so coverage counts them apart.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/sweep.hpp"

namespace rr::harness {

struct DeploymentOptions;

/// The FaultEvent field a DSL key sets. The type fixes the syntax: times
/// are integer nanoseconds (us/ms/s suffixes accepted, emitted canonical).
enum class KeyType {
  Object,    ///< obj=N -> object (a base-object index)
  Objects,   ///< objs=I,J,...|all -> held (all = the empty list)
  Target,    ///< obj=N | role=writer | role=reader [idx=J] -> role, object
  Strategy,  ///< strategy=NAME -> strategy
  Tag,       ///< a fixed word that picks one of twin rows (dir=in|out)
  Start,     ///< at=T, or from=T -> at
  Length,    ///< dur=T, or to=T meaning T - at -> duration
  Period,    ///< time -> period
  Jitter,    ///< time -> jitter
  Rate,      ///< real, optional trailing x -> rate
  Offset,    ///< signed time -> skew
};

struct PrimitiveKey {
  const char* name;
  KeyType type;
  bool required{false};
  bool emit_unset{true};  ///< written even when its field is zero
  /// The value a zero field takes, in the parser and for an event built in
  /// code alike (see with_defaults); 0 = none.
  double fallback{0};
  bool (*valid)(double){nullptr};  ///< range check on the parsed value
  const char* want{nullptr};       ///< that range in words, for the error
  const char* tag{nullptr};        ///< KeyType::Tag: this row's value
};

/// What one instance spends of the scenario's (t, b) budget.
enum class Budget {
  None,
  T,  ///< a faulty object: counts against t
  B,  ///< a Byzantine object: counts against b (and, being faulty, t)
};

/// What a fuzz draw reads: the scenario's private stream and its shape.
struct FuzzDraw {
  Rng& rng;
  const Resilience& res;
  BackendKind backend;

  /// `k` distinct object indices out of [0, S), seeded.
  [[nodiscard]] std::vector<int> objects(int k);
};

using FaultEdges = std::vector<std::pair<Time, bool>>;  ///< (at, on)

struct Primitive {
  const char* label;  ///< coverage label, unique
  FaultEvent::Kind kind;
  bool client{false};  ///< targets a client role (FaultEvent::role)
  const char* word;    ///< `fault <word> ...`
  std::span<const PrimitiveKey> keys;  ///< emit order
  Budget budget{Budget::None};
  bool once{false};         ///< at most one per scenario
  bool des_only{false};     ///< else every backend
  bool model_legal{true};   ///< inside the reliable-channel model
  /// Construction-time effect on the deployment (null: none).
  void (*configure)(const FaultEvent&, DeploymentOptions&){nullptr};
  /// The timed edges, absolute on the backend clock, from the clock at
  /// injection and the cell's seed (null: `apply` runs once, at injection).
  FaultEdges (*edges)(const FaultEvent&, Time now, std::uint64_t seed){
      nullptr};
  /// One edge's effect on one target process (null: none).
  void (*apply)(Backend&, ProcessId, const FaultEvent&, bool on){nullptr};
  /// The fuzzer's draw of an extra (null: not an extra -- the fuzzer's
  /// budget step draws crashes and Byzantine objects itself).
  void (*draw)(FuzzDraw&, FaultEvent&){nullptr};
};

/// The table, in coverage-label order: the order the coverage matrix
/// prints and the fuzzer's extras pool draws from.
[[nodiscard]] std::span<const Primitive> primitives();

/// An event's row: its kind, and for gray/skew whether it targets a client.
[[nodiscard]] const Primitive& primitive_of(const FaultEvent& ev);

/// `ev` with every zero field that has a fallback set to it.
[[nodiscard]] FaultEvent with_defaults(FaultEvent ev);

/// The field a time-typed key (Start, Length, Period, Jitter) sets; null
/// for the other types.
[[nodiscard]] Time FaultEvent::*time_field(KeyType type);

[[nodiscard]] inline bool supports(const Primitive& p, BackendKind b) {
  return !p.des_only || b == BackendKind::Sim;
}

}  // namespace rr::harness
