// Byzantine base-object strategies.
//
// Every strategy is a drop-in replacement for an honest base object (it
// speaks the same wire protocol) that lies in a particular way. The model
// allows arbitrary behaviour; these strategies cover the attack classes that
// matter for the paper's mechanisms:
//
//   silent       crash-like: never replies (tests quorum liveness).
//   amnesiac     acks writes but serves reads from the initial state
//                (staleness attack -- defeats any "trust one reply" rule).
//   forger       fabricates a candidate with a higher timestamp and a
//                plausible tsrarray (the attack the safe() predicate kills).
//   accuser      fabricates a candidate whose embedded tsrarray accuses
//                honest objects of huge reader timestamps (attacks round-1
//                liveness through the conflict predicate).
//   equivocator  sends the honest reply *plus* a per-reader distinct forged
//                one (stresses multi-report bookkeeping; objects only count
//                once in every cardinality predicate).
//   stagger      escalates: each reply carries a fresh, higher forged
//                candidate (drives the polling baseline towards its b+1
//                worst case).
//   collude      all colluders forge the *same* deterministic candidate
//                (maximizes forged vouch counts: exactly b < b+1).
//   random       coin-flips between honest behaviour, forging and silence.
//   stalereplay  answers the first read per peer honestly, captures that
//                reply (capture.hpp), and re-sends the captured snapshot --
//                re-stamped onto the current round -- to every later read
//                from that peer (a replay attack: old truth, fresh framing).
//
// Strategies embed a real honest automaton (SafeObject or RegularObject by
// flavor) and run it through a CapturingContext, so their write-side
// behaviour is indistinguishable from honest objects and the writer makes
// progress; only read replies are twisted.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "adversary/capture.hpp"
#include "common/types.hpp"
#include "net/process.hpp"
#include "objects/regular_object.hpp"
#include "objects/safe_object.hpp"

namespace rr::adversary {

/// Which honest protocol family the impostor mimics.
enum class Flavor { Safe, Regular, Poll, Auth, Abd };

enum class StrategyKind {
  Silent,
  Amnesiac,
  Forger,
  Accuser,
  Equivocator,
  Stagger,
  Collude,
  Random,
  StaleReplay,
};

/// Every strategy, in enum order. The scenario fuzzer draws by index into
/// this list, so its order is part of the fuzz draw stream.
inline constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::Silent,      StrategyKind::Amnesiac, StrategyKind::Forger,
    StrategyKind::Accuser,     StrategyKind::Equivocator,
    StrategyKind::Stagger,     StrategyKind::Collude,  StrategyKind::Random,
    StrategyKind::StaleReplay,
};

[[nodiscard]] const char* to_string(StrategyKind k);
/// The strategy named `name` (its to_string() spelling); nullopt if none.
[[nodiscard]] std::optional<StrategyKind> strategy_from_name(
    std::string_view name);

/// Creates a Byzantine object automaton implementing `kind` against the
/// protocol family `flavor`, posing as object `object_index`.
[[nodiscard]] std::unique_ptr<net::Process> make_byzantine(
    StrategyKind kind, Flavor flavor, const Topology& topo,
    const Resilience& res, int object_index);

}  // namespace rr::adversary
