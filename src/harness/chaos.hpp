// Chaos injection: adversarial schedule fuzzing for deployments.
//
// The model's adversary controls message delays. Beyond the delay models,
// the ChaosPlan periodically *holds* all channels of a rotating subset of
// at most `max_held` base objects (they look crashed for a while) and
// releases them later -- realizing the proofs' "messages remain in transit"
// tactic at random. Holds are always eventually released, so the runs stay
// legal (reliable channels, finite delays) and wait-freedom must survive.
//
// Chaos drives the deployment's Backend, so the same plan runs under the
// DES (virtual time) and the threaded cluster (wall-clock nanoseconds --
// pick durations accordingly; the defaults work for both).
//
// Combined with Byzantine objects this approximates the strongest adversary
// the model admits: lying objects plus scheduler-controlled asynchrony.
//
// A scenario's own timed faults -- holds, partitions, flaps, gray windows
// -- are not chaos: they are rows of the fault-primitive table
// (harness/primitives.hpp), whose edges the sweep computes up front.
#pragma once

#include "harness/deployment.hpp"

namespace rr::harness {

struct ChaosOptions {
  /// Objects whose channels may be held simultaneously. Defaults to the
  /// full crash budget t minus already-planned crashed objects (the caller
  /// must keep total unreachable objects <= t or reads may legally stall
  /// until release).
  int max_held{1};
  /// Times below are relative to the backend clock at injection time.
  Time start{0};
  Time horizon{2'000'000};     ///< stop injecting after this much time
  Time hold_duration{30'000};  ///< how long a subset stays held
  Time gap{20'000};            ///< pause between hold waves
  std::uint64_t seed{1};
};

/// Schedules hold/release waves on `d.backend()`. Call before d.run().
void inject_chaos(Deployment& d, const ChaosOptions& opts);
}  // namespace rr::harness
