// Heap budgets of whole deployments on the DES, counted by the shared
// counting operator new:
//   - allocations per operation of a closed loop with the windowed checker,
//     per protocol and fault shape, so a representation change in the
//     automata shows as a count, not a guess;
//   - live heap blocks of gv06-regular over a long unlogged run, which must
//     not grow with the operation count (correct processes hold bounded
//     state, Byzantine peers included).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "adversary/byzantine.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "support/counting_alloc.hpp"

namespace rr::harness {
namespace {

using adversary::StrategyKind;

struct Shape {
  Protocol protocol;
  int t;
  int b;
  std::optional<StrategyKind> byzantine;  ///< on object 0
  int crashed{0};  ///< crashed objects, numbered after the Byzantine one
};

DeploymentOptions options_for(const Shape& s) {
  DeploymentOptions opts;
  opts.protocol = s.protocol;
  opts.res = protocol_traits(s.protocol).resilience_for(s.t, s.b, 1);
  opts.seed = 5;
  if (s.byzantine) {
    opts.faults = FaultPlan::mixed(1, *s.byzantine, s.crashed);
  } else {
    opts.faults = FaultPlan::mixed(0, StrategyKind::Silent, s.crashed);
  }
  return opts;
}

/// One writer and one reader, each invoking its next operation the moment
/// the previous one returns, `count` operations each; runs to quiescence.
void closed_loop(Deployment& d, int count, bool logged) {
  int writes = count;
  int reads = count;
  std::function<void(Time)> next_write = [&](Time at) {
    if (writes-- == 0) return;
    auto cb = [&](const core::WriteResult& r) { next_write(r.completed_at); };
    const Value v = value_for(static_cast<Ts>(count - writes));
    if (logged) {
      d.logged_write(at, v, cb);
    } else {
      d.invoke_write(at, v, cb);
    }
  };
  std::function<void(Time)> next_read = [&](Time at) {
    if (reads-- == 0) return;
    auto cb = [&](const core::ReadResult& r) { next_read(r.completed_at); };
    if (logged) {
      d.logged_read(at, 0, cb);
    } else {
      d.invoke_read(at, 0, cb);
    }
  };
  next_write(d.now());
  next_read(d.now() + 300);
  d.run();
  ASSERT_EQ(writes, -1) << "the write loop stalled";
  ASSERT_EQ(reads, -1) << "the read loop stalled";
}

/// Heap allocations per operation of a 20K-write + 20K-read closed loop,
/// after a warm-up, with the window-4096 streaming checker.
double allocs_per_op(const Shape& s) {
  auto opts = options_for(s);
  opts.checker_window = 4096;
  Deployment d(std::move(opts));
  closed_loop(d, 2'000, /*logged=*/true);
  const std::uint64_t before = test::heap_allocs();
  closed_loop(d, 20'000, /*logged=*/true);
  const std::uint64_t allocs = test::heap_allocs() - before;
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
  return static_cast<double>(allocs) / 40'000.0;
}

// Allocations per op of these loops when every tuple copy deep-copied its
// tsrarray (one heap block per row plus one for the spine): gv06-safe S=4
// 53.3, S=7 125.2, S=4 with a Forger 70.6, gv06-regular S=6 with a Forger
// and a crash 110.3; ABD, the control with no tuples, 3.7.

TEST(AllocBudget, SafeS4) {
  const double per_op = allocs_per_op({Protocol::Safe, 1, 1, std::nullopt});
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, 14.0);
}

TEST(AllocBudget, SafeS7) {
  const double per_op = allocs_per_op({Protocol::Safe, 2, 2, std::nullopt});
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, 20.0);
}

TEST(AllocBudget, SafeS4Forger) {
  const double per_op =
      allocs_per_op({Protocol::Safe, 1, 1, StrategyKind::Forger});
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, 18.0);
}

TEST(AllocBudget, RegularS6ForgerAndCrash) {
  const double per_op =
      allocs_per_op({Protocol::Regular, 2, 1, StrategyKind::Forger, 1});
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, 28.0);
}

TEST(AllocBudget, AbdControl) {
  const double per_op = allocs_per_op({Protocol::Abd, 1, 0, std::nullopt});
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, 6.0);
}

// ---------------------------------------------------------------------------
// Bounded state: a gv06-regular deployment's live heap blocks after N and
// after 4N unlogged operations agree to within 1% of N. The reader's
// per-object history mirrors are the state at risk: late acks and forged
// slots insert out of order, and every collected slot must give its memory
// back.
// ---------------------------------------------------------------------------

std::int64_t live_blocks() {
  return static_cast<std::int64_t>(test::heap_allocs() - test::heap_frees());
}

/// `writes` writes in a closed loop, with one reader reading in its own
/// closed loop until the writer is done and then once more, so every slot
/// is acked by a read: slots no reader has acked yet are state watermark
/// GC must keep, and a reader that fell behind would count them as growth.
/// Returns the operations completed.
int paced_loop(Deployment& d, int writes) {
  int ops = 0;
  int writes_left = writes;
  bool final_read = false;
  std::function<void(Time)> next_write = [&](Time at) {
    if (writes_left-- == 0) return;
    d.invoke_write(at, value_for(static_cast<Ts>(writes - writes_left)),
                   [&](const core::WriteResult& r) {
                     ++ops;
                     next_write(r.completed_at);
                   });
  };
  std::function<void(Time)> next_read = [&](Time at) {
    if (final_read) return;
    final_read = writes_left < 0;
    d.invoke_read(at, 0, [&](const core::ReadResult& r) {
      ++ops;
      next_read(r.completed_at);
    });
  };
  next_write(d.now());
  next_read(d.now() + 300);
  d.run();
  EXPECT_EQ(writes_left, -1) << "the write loop stalled";
  EXPECT_TRUE(final_read) << "the read loop stalled";
  return ops;
}

void expect_flat_heap(const Shape& s) {
  Deployment d(options_for(s));
  const int n = paced_loop(d, 10'000);
  const std::int64_t at_n = live_blocks();
  const int total = n + paced_loop(d, 30'000);
  const std::int64_t at_4n = live_blocks();
  ::testing::Test::RecordProperty("live_blocks_at_n", std::to_string(at_n));
  ::testing::Test::RecordProperty("live_blocks_at_4n", std::to_string(at_4n));
  EXPECT_GE(total, 4 * n * 9 / 10);
  EXPECT_LE(std::abs(at_4n - at_n), n / 100)
      << "live heap blocks went from " << at_n << " after " << n
      << " ops to " << at_4n << " after " << total;
}

TEST(BoundedState, RegularHonest) {
  expect_flat_heap({Protocol::Regular, 2, 1, std::nullopt});
}

TEST(BoundedState, RegularForgerAndCrash) {
  expect_flat_heap({Protocol::Regular, 2, 1, StrategyKind::Forger, 1});
}

TEST(BoundedState, RegularOptHonest) {
  expect_flat_heap({Protocol::RegularOptimized, 2, 1, std::nullopt});
}

TEST(BoundedState, RegularOptForgerAndCrash) {
  expect_flat_heap(
      {Protocol::RegularOptimized, 2, 1, StrategyKind::Forger, 1});
}

}  // namespace
}  // namespace rr::harness
