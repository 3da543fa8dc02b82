// White-box tests of the regular reader automaton (Figure 6): per-slot
// safe/invalid predicates, the one-reply-per-object-per-round guard,
// suffix-request plumbing, cache behaviour, and hostile histories.
#include <gtest/gtest.h>

#include <optional>

#include "adversary/capture.hpp"
#include "core/regular_reader.hpp"

namespace rr::core {
namespace {

using adversary::CapturingContext;

class NullContext final : public net::Context {
 public:
  [[nodiscard]] ProcessId self() const override { return 1; }
  [[nodiscard]] Time now() const override { return 0; }
  void send(ProcessId, wire::Message) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{3};
};

class RegularHarness {
 public:
  explicit RegularHarness(bool optimized = false)
      : topo_(1, res_.num_objects),
        reader_(res_, topo_, 0, optimized) {}

  void start() {
    CapturingContext cap(null_);
    reader_.read(cap, [this](const ReadResult& r) { result_ = r; });
    auto sent = cap.take();
    ASSERT_EQ(sent.size(), 4u);
    const auto& req = std::get<wire::HistReadMsg>(sent[0].msg);
    round1_tsr_ = req.tsr;
    requested_cache_ts_ = req.cache_ts;
  }

  void ack(int i, std::uint8_t round, ReaderTs tsr, wire::History h,
           Ts since = 0, std::uint8_t resync = 0) {
    CapturingContext cap(null_);
    reader_.on_message(
        cap, topo_.object(i),
        wire::HistReadAckMsg{round, tsr, std::move(h), since, resync});
    for (const auto& out : cap.sent()) {
      if (const auto* rd = std::get_if<wire::HistReadMsg>(&out.msg)) {
        if (rd->round == 2) round2_started_ = true;
      }
    }
  }

  [[nodiscard]] WTuple tuple(Ts ts, const Value& v) const {
    return WTuple{TsVal{ts, v}, init_tsrarray(4)};
  }

  /// History with slot 0 plus complete slots 1..k.
  [[nodiscard]] wire::History full_history(Ts k) const {
    wire::History h;
    h[0] = wire::HistEntry{TsVal::bottom(), initial_wtuple(4)};
    for (Ts ts = 1; ts <= k; ++ts) {
      const Value v = "v" + std::to_string(ts);
      h[ts] = wire::HistEntry{TsVal{ts, v}, tuple(ts, v)};
    }
    return h;
  }

  Resilience res_ = Resilience::optimal(1, 1, 1);  // S = 4, quorum = 3
  Topology topo_;
  NullContext null_;
  RegularReader reader_;
  ReaderTs round1_tsr_{0};
  Ts requested_cache_ts_{99};
  bool round2_started_{false};
  std::optional<ReadResult> result_;
};

TEST(RegularReaderUnit, ReturnsNewestSafeSlot) {
  RegularHarness h;
  h.start();
  EXPECT_EQ(h.requested_cache_ts_, 0u) << "unoptimized reads ask from 0";
  for (int i = 0; i < 3; ++i) {
    h.ack(i, 1, h.round1_tsr_, h.full_history(2));
  }
  // Round-1 evidence alone yields b+1 = 2 vouchers for slot 2: the read
  // returns as soon as round 2 starts.
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval, (TsVal{2, "v2"}));
  EXPECT_EQ(h.result_->rounds, 2);
}

TEST(RegularReaderUnit, DuplicateRoundAcksIgnored) {
  RegularHarness h;
  h.start();
  h.ack(0, 1, h.round1_tsr_, h.full_history(1));
  h.ack(0, 1, h.round1_tsr_, h.full_history(3));  // same object, same round
  EXPECT_FALSE(h.round2_started_) << "object 0 may fill its slot only once";
  EXPECT_EQ(h.reader_.diag().round1_acks, 1);
}

TEST(RegularReaderUnit, PwOnlySlotDoesNotBecomeCandidate) {
  // A slot holding only the pre-write (w = nil) is not a candidate, but its
  // pw can vouch for the tuple once some object reports the full slot.
  RegularHarness h;
  h.start();
  wire::History pw_only = h.full_history(0);
  pw_only[5] = wire::HistEntry{TsVal{5, "v5"}, std::nullopt};
  wire::History full = h.full_history(0);
  full[5] = wire::HistEntry{TsVal{5, "v5"}, h.tuple(5, "v5")};
  h.ack(0, 1, h.round1_tsr_, pw_only);
  h.ack(1, 1, h.round1_tsr_, pw_only);
  h.ack(2, 1, h.round1_tsr_, full);
  // Candidate <5, v5> exists (object 2) and has 2 vouchers via the pw
  // entries of objects 0 and 1 -> safe at round-2 entry.
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval, (TsVal{5, "v5"}));
}

TEST(RegularReaderUnit, ForgedSlotDiesByInvalidation) {
  RegularHarness h;
  h.start();
  wire::History forged = h.full_history(1);
  forged[9] = wire::HistEntry{TsVal{9, "evil"}, h.tuple(9, "evil")};
  h.ack(0, 1, h.round1_tsr_, forged);           // the liar
  h.ack(1, 1, h.round1_tsr_, h.full_history(1));
  h.ack(2, 1, h.round1_tsr_, h.full_history(1));
  ASSERT_TRUE(h.round2_started_);
  EXPECT_FALSE(h.result_.has_value())
      << "slot 9 has one voucher and only 2 denials so far";
  // A third honest reply without slot 9 reaches invalid(c)'s t+b+1 = 3.
  h.ack(3, 2, h.round1_tsr_ + 1, h.full_history(1));
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval, (TsVal{1, "v1"}));
  EXPECT_EQ(h.reader_.diag().candidates_removed, 1);
}

TEST(RegularReaderUnit, MismatchedSlotContentCountsAsDenial) {
  // Same slot number, different value: honest objects deny the forged
  // variant even though they HAVE the slot (Figure 6 line 2's pw/w
  // mismatch arm).
  RegularHarness h;
  h.start();
  wire::History forged = h.full_history(0);
  forged[1] = wire::HistEntry{TsVal{1, "EVIL"}, h.tuple(1, "EVIL")};
  h.ack(0, 1, h.round1_tsr_, forged);
  h.ack(1, 1, h.round1_tsr_, h.full_history(1));  // genuine v1 at slot 1
  h.ack(2, 1, h.round1_tsr_, h.full_history(1));
  // Candidates: <1,EVIL> (1 voucher) and <1,v1> (2 vouchers, safe). Both
  // are highCand (same ts); the safe one is returned.
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval, (TsVal{1, "v1"}));
}

TEST(RegularReaderUnit, OptimizedRequestsSuffixFromCache) {
  RegularHarness h(/*optimized=*/true);
  h.start();
  EXPECT_EQ(h.requested_cache_ts_, 0u) << "cold cache asks from 0";
  for (int i = 0; i < 3; ++i) h.ack(i, 1, h.round1_tsr_, h.full_history(3));
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval.ts, 3u);
  // Second read must request the suffix from the cached timestamp.
  h.result_.reset();
  h.round2_started_ = false;
  h.start();
  EXPECT_EQ(h.requested_cache_ts_, 3u);
}

TEST(RegularReaderUnit, EmptyDeltasReuseTheMirrorCandidates) {
  RegularHarness h(/*optimized=*/true);
  h.start();
  for (int i = 0; i < 3; ++i) h.ack(i, 1, h.round1_tsr_, h.full_history(2));
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval.ts, 2u);
  h.result_.reset();
  h.round2_started_ = false;
  // Next read: nothing was written, so objects ship EMPTY deltas. The
  // candidate is re-derived from the persistent mirrors (which still vouch
  // for slot 2) -- a real return, not a cache fallback.
  h.start();
  for (int i = 0; i < 3; ++i) h.ack(i, 1, h.round1_tsr_, wire::History{});
  ASSERT_TRUE(h.round2_started_);
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval, (TsVal{2, "v2"}));
  EXPECT_FALSE(h.result_->returned_default);
}

TEST(RegularReaderUnit, OptimizedFallsBackToCacheWhenCandidatesDrain) {
  RegularHarness h(/*optimized=*/true);
  h.start();
  for (int i = 0; i < 3; ++i) h.ack(i, 1, h.round1_tsr_, h.full_history(2));
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->tsval.ts, 2u);
  h.result_.reset();
  h.round2_started_ = false;
  // Next read: every object hard-capped its history past the reader's floor
  // and answers with a flagged resync carrying nothing the reader can use.
  // The mirrors are rebuilt from the (empty) flagged suffixes, C drains,
  // and the read must return the cached value instead of blocking.
  h.start();
  for (int i = 0; i < 3; ++i) {
    h.ack(i, 1, h.round1_tsr_, wire::History{}, /*since=*/9, /*resync=*/1);
  }
  ASSERT_TRUE(h.round2_started_);
  ASSERT_TRUE(h.result_.has_value())
      << "empty candidate set must fall back to the cache";
  EXPECT_EQ(h.result_->tsval, (TsVal{2, "v2"}));
  EXPECT_TRUE(h.result_->returned_default);
  EXPECT_TRUE(h.reader_.diag().returned_from_cache);
  EXPECT_EQ(h.reader_.diag().resyncs, 3u);
}

TEST(RegularReaderUnit, ConflictViaHistoryTuple) {
  RegularHarness h;
  h.start();
  // Object 2's history contains a tuple accusing object 0 of a huge reader
  // timestamp -> conflict(0, 2) blocks quorums containing both.
  WTuple accusing = h.tuple(4, "x");
  TsrRow row(1, 0);
  row[0] = 1'000'000'000;
  TsrRows rows = accusing.tsrarray.rows();
  rows[0] = std::move(row);
  accusing.tsrarray = TsrArray(rows);
  wire::History evil = h.full_history(0);
  evil[4] = wire::HistEntry{TsVal{4, "x"}, accusing};
  h.ack(0, 1, h.round1_tsr_, h.full_history(0));
  h.ack(1, 1, h.round1_tsr_, h.full_history(0));
  h.ack(2, 1, h.round1_tsr_, evil);
  EXPECT_FALSE(h.round2_started_);
  h.ack(3, 1, h.round1_tsr_, h.full_history(0));
  EXPECT_TRUE(h.round2_started_) << "{0,1,3} is a clean quorum";
}

TEST(RegularReaderUnit, WaitsWhenRoundTwoCandidateLacksVouchers) {
  // Empty-ish round 1 followed by a round-2-only candidate: regularity's
  // proof machinery (case 2.b) lives in the DES tests; here we only pin
  // that the reader does not return an unvouched round-2 discovery.
  RegularHarness h;
  h.start();
  for (int i = 0; i < 3; ++i) h.ack(i, 1, h.round1_tsr_, h.full_history(0));
  ASSERT_TRUE(h.round2_started_);
  ASSERT_TRUE(h.result_.has_value())
      << "slot 0 alone is safe (every object vouches for w0)";
  EXPECT_TRUE(h.result_->tsval.is_bottom());
}

}  // namespace
}  // namespace rr::core
