// Unit tests for common/: core types, resilience arithmetic, topology
// mapping, and the deterministic RNG.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rr {
namespace {

TEST(TsValTest, BottomIsTimestampZero) {
  EXPECT_TRUE(TsVal::bottom().is_bottom());
  EXPECT_EQ(TsVal::bottom().ts, 0u);
  EXPECT_FALSE((TsVal{1, "x"}).is_bottom());
}

TEST(TsValTest, OrderingIsByTimestampFirst) {
  EXPECT_LT((TsVal{1, "z"}), (TsVal{2, "a"}));
  EXPECT_LT((TsVal{1, "a"}), (TsVal{1, "b"}));
  EXPECT_EQ((TsVal{3, "v"}), (TsVal{3, "v"}));
}

TEST(WTupleTest, EqualityIncludesTsrArray) {
  WTuple a{TsVal{1, "v"}, init_tsrarray(3)};
  WTuple b = a;
  EXPECT_EQ(a, b);
  TsrRows rows = a.tsrarray.rows();
  rows[0] = TsrRow{7};
  b.tsrarray = TsrArray(rows);
  EXPECT_NE(a, b);
}

TEST(InitialWTupleTest, HasBottomAndAllNilRows) {
  const WTuple w0 = initial_wtuple(4);
  EXPECT_TRUE(w0.tsval.is_bottom());
  ASSERT_EQ(w0.tsrarray.size(), 4u);
  for (const auto& row : w0.tsrarray.rows()) EXPECT_FALSE(row.has_value());
}

TEST(ResilienceTest, OptimalMatchesPaperBound) {
  // S = 2t + b + 1 (Martin-Alvisi-Dahlin optimal resilience).
  const auto r = Resilience::optimal(3, 2, 5);
  EXPECT_EQ(r.num_objects, 9);
  EXPECT_EQ(r.t, 3);
  EXPECT_EQ(r.b, 2);
  EXPECT_EQ(r.num_readers, 5);
  EXPECT_TRUE(r.valid());
  EXPECT_TRUE(r.feasible());
}

TEST(ResilienceTest, QuorumIsSMinusT) {
  const auto r = Resilience::optimal(3, 2);
  EXPECT_EQ(r.quorum(), 9 - 3);
  // The quorum always equals t + b + 1 at optimal resilience.
  EXPECT_EQ(r.quorum(), r.t + r.b + 1);
}

TEST(ResilienceTest, InfeasibleBelowLowerBound) {
  Resilience r;
  r.num_objects = 5;  // one short of 2t+b+1 = 6 with t=2, b=1
  r.t = 2;
  r.b = 1;
  EXPECT_FALSE(r.feasible());
  r.num_objects = 6;
  EXPECT_TRUE(r.feasible());
}

TEST(ResilienceTest, ValidityRejectsNonsense) {
  Resilience r = Resilience::optimal(2, 1);
  r.b = 3;  // b > t
  EXPECT_FALSE(r.valid());
  r = Resilience::optimal(2, 1);
  r.num_readers = 0;
  EXPECT_FALSE(r.valid());
}

TEST(TopologyTest, RoundTripsRolesAndIndices) {
  const Topology topo(/*num_readers=*/3, /*num_objects=*/7);
  EXPECT_EQ(topo.num_processes(), 1 + 3 + 7);
  EXPECT_EQ(topo.role_of(topo.writer()), Role::Writer);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(topo.role_of(topo.reader(j)), Role::Reader);
    EXPECT_EQ(topo.reader_index(topo.reader(j)), j);
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(topo.role_of(topo.object(i)), Role::Object);
    EXPECT_EQ(topo.object_index(topo.object(i)), i);
    EXPECT_TRUE(topo.is_object(topo.object(i)));
  }
  EXPECT_FALSE(topo.is_object(topo.writer()));
  EXPECT_FALSE(topo.is_object(topo.reader(2)));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(5);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, IndexWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(13), 13u);
  }
}

}  // namespace
}  // namespace rr
