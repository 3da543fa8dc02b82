// Probabilistic per-channel link faults, shared by every backend.
//
// The paper's model assumes reliable point-to-point channels: messages are
// neither lost, duplicated, nor corrupted (reordering, however, is fully
// legal -- delays are arbitrary). The gray-failure library deliberately
// steps outside that model with seeded message LOSS and DUPLICATION, and
// stays inside it with forced REORDERING (an extra scheduled delay, so
// later sends overtake). net::ChannelProxy applies this one configuration
// on every backend and accounts the perturbations in the same net::NetStats
// counters, so a scenario that loses 20% of one object's traffic behaves
// the same on the DES, on real threads and on sockets.
//
// Sampling is seeded and (on the DES) consumed in deterministic event
// order from a dedicated RNG stream, so enabling a rule never perturbs the
// base delay sampling of unaffected runs.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace rr::net {

/// One probabilistic rule: fire with probability `p` on every message whose
/// channel is covered and whose send time falls inside [from, until).
struct LinkFaultRule {
  double p{0};
  Time from{0};
  Time until{0};  ///< 0 = no upper bound
  /// Scope: empty = every channel; otherwise only channels adjacent to one
  /// of these processes (either endpoint). Small lists, scanned linearly.
  std::vector<ProcessId> pids;

  [[nodiscard]] bool enabled() const { return p > 0; }
  [[nodiscard]] bool active(Time now) const {
    return p > 0 && now >= from && (until == 0 || now < until);
  }
  [[nodiscard]] bool covers(ProcessId a, ProcessId b) const {
    if (pids.empty()) return true;
    for (const ProcessId pid : pids) {
      if (pid == a || pid == b) return true;
    }
    return false;
  }
};

/// The full link-fault configuration a backend installs before start().
struct LinkFaults {
  LinkFaultRule loss;       ///< message silently dropped (model violation)
  LinkFaultRule duplicate;  ///< message delivered twice (model violation)
  LinkFaultRule reorder;    ///< message delayed by `reorder_delay` (legal)
  /// Extra delay, in backend clock units, a reordered message is deferred
  /// by (enough for several later sends on the channel to overtake it).
  Time reorder_delay{20'000};
  std::uint64_t seed{1};

  [[nodiscard]] bool any() const {
    return loss.enabled() || duplicate.enabled() || reorder.enabled();
  }
};

}  // namespace rr::net
