#include "harness/chaos.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rr::harness {
namespace {

struct ChaosState {
  Rng rng;
  Time deadline;          ///< absolute backend time to stop injecting
  std::vector<int> held;  ///< currently held object indices

  ChaosState(std::uint64_t seed, Time deadline_at)
      : rng(seed), deadline(deadline_at) {}
};

void schedule_wave(Deployment& d, const ChaosOptions& opts,
                   const std::shared_ptr<ChaosState>& st, Time at);

void release_wave(Deployment& d, const ChaosOptions& opts,
                  const std::shared_ptr<ChaosState>& st, Time at) {
  // Releases run as steps of the shard-0 writer purely for scheduling; they
  // touch only the backend's channel state.
  d.backend().post(at, d.writer_pid(), [&d, opts, st](net::Context& ctx) {
    for (const int i : st->held) {
      d.backend().release_all(d.object_pid(i));
    }
    st->held.clear();
    schedule_wave(d, opts, st, ctx.now() + opts.gap);
  });
}

void schedule_wave(Deployment& d, const ChaosOptions& opts,
                   const std::shared_ptr<ChaosState>& st, Time at) {
  if (at > st->deadline) return;
  d.backend().post(at, d.writer_pid(), [&d, opts, st](net::Context& ctx) {
    // Pick a fresh random subset of objects to isolate.
    const int S = d.res().num_objects;
    const int count =
        1 + static_cast<int>(st->rng.index(
                static_cast<std::size_t>(std::max(1, opts.max_held))));
    while (static_cast<int>(st->held.size()) < count) {
      const int candidate = static_cast<int>(st->rng.index(
          static_cast<std::size_t>(S)));
      if (std::find(st->held.begin(), st->held.end(), candidate) ==
          st->held.end()) {
        st->held.push_back(candidate);
      }
    }
    for (const int i : st->held) {
      d.backend().hold_all(d.object_pid(i));
    }
    release_wave(d, opts, st, ctx.now() + opts.hold_duration);
  });
}

}  // namespace

void inject_chaos(Deployment& d, const ChaosOptions& opts) {
  RR_ASSERT_MSG(opts.max_held + d.options().faults.total_faulty() <=
                    d.res().t,
                "held + faulty objects must stay within the budget t");
  const Time base = d.now();
  auto st = std::make_shared<ChaosState>(opts.seed, base + opts.horizon);
  schedule_wave(d, opts, st, base + opts.start);
}

}  // namespace rr::harness
