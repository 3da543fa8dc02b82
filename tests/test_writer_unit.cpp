// White-box tests of the writer automaton (Figure 2): phase transitions,
// tsrarray harvesting, stale-ack filtering, and tuple assembly.
#include <gtest/gtest.h>

#include <optional>

#include "adversary/capture.hpp"
#include "core/writer.hpp"

namespace rr::core {
namespace {

using adversary::CapturingContext;
using adversary::Outgoing;

class NullContext final : public net::Context {
 public:
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] Time now() const override { return 0; }
  void send(ProcessId, wire::Message) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{5};
};

class WriterHarness {
 public:
  WriterHarness() : topo_(2, res_.num_objects), writer_(res_, topo_) {}

  /// Starts a write; returns the captured PW broadcast.
  std::vector<Outgoing> start(const Value& v) {
    CapturingContext cap(null_);
    writer_.write(cap, v, [this](const WriteResult& r) { result_ = r; });
    return cap.take();
  }

  /// Delivers an ack; returns what the writer sent in response.
  std::vector<Outgoing> ack(int i, wire::Message msg) {
    CapturingContext cap(null_);
    writer_.on_message(cap, topo_.object(i), msg);
    return cap.take();
  }

  Resilience res_ = Resilience::optimal(1, 1, 2);  // S = 4, quorum = 3
  Topology topo_;
  NullContext null_;
  Writer writer_;
  std::optional<WriteResult> result_;
};

TEST(WriterUnit, PwBroadcastCarriesPreviousTuple) {
  WriterHarness h;
  const auto sent = h.start("v1");
  ASSERT_EQ(sent.size(), 4u);
  const auto& pw = std::get<wire::PwMsg>(sent[0].msg);
  EXPECT_EQ(pw.ts, 1u);
  EXPECT_EQ(pw.pw, (TsVal{1, "v1"}));
  EXPECT_EQ(pw.w, initial_wtuple(4)) << "first write carries w0";
}

TEST(WriterUnit, HarvestedRowsLandInTheTuple) {
  WriterHarness h;
  h.start("v1");
  // Three PW acks with distinct reader rows.
  h.ack(0, wire::PwAckMsg{1, TsrRow{10, 20}});
  h.ack(1, wire::PwAckMsg{1, TsrRow{30, 40}});
  const auto sent = h.ack(3, wire::PwAckMsg{1, TsrRow{50, 60}});
  // Quorum reached: the W broadcast must embed exactly those rows.
  ASSERT_EQ(sent.size(), 4u);
  const auto& w = std::get<wire::WMsg>(sent[0].msg);
  ASSERT_TRUE(w.w.tsrarray.rows()[0].has_value());
  EXPECT_EQ(*w.w.tsrarray.rows()[0], (TsrRow{10, 20}));
  EXPECT_EQ(*w.w.tsrarray.rows()[1], (TsrRow{30, 40}));
  EXPECT_FALSE(w.w.tsrarray.rows()[2].has_value()) << "object 2 never acked";
  EXPECT_EQ(*w.w.tsrarray.rows()[3], (TsrRow{50, 60}));
}

TEST(WriterUnit, CompletesAfterQuorumOfWAcks) {
  WriterHarness h;
  h.start("v1");
  for (int i = 0; i < 3; ++i) h.ack(i, wire::PwAckMsg{1, TsrRow{0, 0}});
  EXPECT_FALSE(h.result_.has_value());
  h.ack(0, wire::WAckMsg{1});
  h.ack(1, wire::WAckMsg{1});
  EXPECT_FALSE(h.result_.has_value());
  h.ack(2, wire::WAckMsg{1});
  ASSERT_TRUE(h.result_.has_value());
  EXPECT_EQ(h.result_->ts, 1u);
  EXPECT_EQ(h.result_->rounds, 2);
  EXPECT_FALSE(h.writer_.busy());
}

TEST(WriterUnit, DuplicateAcksCountOnce) {
  WriterHarness h;
  h.start("v1");
  for (int k = 0; k < 5; ++k) h.ack(0, wire::PwAckMsg{1, TsrRow{0, 0}});
  EXPECT_TRUE(h.writer_.busy()) << "one object cannot form a quorum";
}

TEST(WriterUnit, StaleAcksIgnored) {
  WriterHarness h;
  h.start("v1");
  // Acks for a different timestamp (e.g. replayed from an earlier write).
  h.ack(0, wire::PwAckMsg{9, TsrRow{0, 0}});
  h.ack(1, wire::PwAckMsg{0, TsrRow{0, 0}});
  h.ack(2, wire::WAckMsg{1});  // W ack during PW phase
  EXPECT_TRUE(h.writer_.busy());
}

TEST(WriterUnit, MalformedRowsAreNormalized) {
  WriterHarness h;
  h.start("v1");
  // A Byzantine object reports a row of the wrong width; the writer must
  // normalize it to R entries so reader-side indexing stays total.
  h.ack(0, wire::PwAckMsg{1, TsrRow{1, 2, 3, 4, 5}});
  h.ack(1, wire::PwAckMsg{1, TsrRow{}});
  const auto sent = h.ack(2, wire::PwAckMsg{1, TsrRow{7, 8}});
  ASSERT_EQ(sent.size(), 4u);
  const auto& w = std::get<wire::WMsg>(sent[0].msg);
  EXPECT_EQ(w.w.tsrarray.rows()[0]->size(), 2u) << "truncated to R";
  EXPECT_EQ(w.w.tsrarray.rows()[1]->size(), 2u) << "padded to R";
  EXPECT_EQ((*w.w.tsrarray.rows()[1])[0], 0u);
}

TEST(WriterUnit, SecondWriteCarriesFirstTuple) {
  WriterHarness h;
  h.start("v1");
  for (int i = 0; i < 3; ++i) h.ack(i, wire::PwAckMsg{1, TsrRow{3, 4}});
  for (int i = 0; i < 3; ++i) h.ack(i, wire::WAckMsg{1});
  ASSERT_TRUE(h.result_.has_value());
  const auto sent = h.start("v2");
  const auto& pw = std::get<wire::PwMsg>(sent[0].msg);
  EXPECT_EQ(pw.ts, 2u);
  EXPECT_EQ(pw.w.tsval, (TsVal{1, "v1"}))
      << "the PW of write 2 commits write 1's tuple";
  ASSERT_TRUE(pw.w.tsrarray.rows()[0].has_value());
  EXPECT_EQ(*pw.w.tsrarray.rows()[0], (TsrRow{3, 4}));
}

TEST(WriterUnit, FreshTsrArrayPerWrite) {
  WriterHarness h;
  h.start("v1");
  for (int i = 0; i < 3; ++i) h.ack(i, wire::PwAckMsg{1, TsrRow{9, 9}});
  for (int i = 0; i < 3; ++i) h.ack(i, wire::WAckMsg{1});
  h.start("v2");
  // Only object 3 acks the second PW: the new tuple must not inherit rows
  // from write 1's harvest.
  h.ack(3, wire::PwAckMsg{2, TsrRow{1, 1}});
  h.ack(0, wire::PwAckMsg{2, TsrRow{2, 2}});
  const auto sent = h.ack(1, wire::PwAckMsg{2, TsrRow{3, 3}});
  const auto& w = std::get<wire::WMsg>(sent[0].msg);
  EXPECT_FALSE(w.w.tsrarray.rows()[2].has_value());
  EXPECT_EQ(*w.w.tsrarray.rows()[3], (TsrRow{1, 1}));
}

TEST(WriterUnit, AcksFromNonObjectsIgnored) {
  WriterHarness h;
  h.start("v1");
  CapturingContext cap(h.null_);
  // From a reader pid.
  h.writer_.on_message(cap, h.topo_.reader(0),
                       wire::PwAckMsg{1, TsrRow{0, 0}});
  EXPECT_TRUE(h.writer_.busy());
}

}  // namespace
}  // namespace rr::core
