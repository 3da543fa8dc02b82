// Byzantine strategy automata: each strategy must (a) keep the writer live
// (ack writes), (b) lie in its documented way, (c) speak well-formed wire
// messages for every protocol flavor. These tests pin the strategies'
// behaviour so protocol tests exercising them test what they think they do.
#include <gtest/gtest.h>

#include "adversary/byzantine.hpp"
#include "adversary/capture.hpp"
#include "wire/codec.hpp"

namespace rr::adversary {
namespace {

class NullContext final : public net::Context {
 public:
  [[nodiscard]] ProcessId self() const override { return 77; }
  [[nodiscard]] Time now() const override { return 0; }
  void send(ProcessId, wire::Message) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{42};
};

struct Fixture {
  Resilience res = Resilience::optimal(2, 2, 2);
  Topology topo{2, 7};
  NullContext null;

  std::vector<Outgoing> deliver(net::Process& p, ProcessId from,
                                wire::Message msg) {
    CapturingContext cap(null);
    p.on_message(cap, from, msg);
    return cap.take();
  }

  std::unique_ptr<net::Process> make(StrategyKind kind,
                                     Flavor flavor = Flavor::Safe) {
    return make_byzantine(kind, flavor, topo, res, 0);
  }

  wire::PwMsg pw_msg(Ts ts) {
    return wire::PwMsg{ts, TsVal{ts, "v"},
                       WTuple{TsVal{ts - 1, "p"}, init_tsrarray(7)}};
  }
};

TEST(StrategyNames, RoundTrip) {
  for (const auto k : kAllStrategies) {
    EXPECT_EQ(strategy_from_name(to_string(k)), k);
  }
  EXPECT_EQ(std::size(kAllStrategies),
            static_cast<std::size_t>(StrategyKind::StaleReplay) + 1);
  EXPECT_FALSE(strategy_from_name("nope").has_value());
  EXPECT_FALSE(strategy_from_name("").has_value());
}

TEST(SilentStrategy, NeverReplies) {
  Fixture f;
  auto obj = f.make(StrategyKind::Silent);
  EXPECT_TRUE(f.deliver(*obj, f.topo.writer(), f.pw_msg(1)).empty());
  EXPECT_TRUE(
      f.deliver(*obj, f.topo.reader(0), wire::ReadMsg{1, 1, 0}).empty());
}

TEST(AmnesiacStrategy, AcksWritesButServesInitialState) {
  Fixture f;
  auto obj = f.make(StrategyKind::Amnesiac);
  auto out = f.deliver(*obj, f.topo.writer(), f.pw_msg(5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<wire::PwAckMsg>(out[0].msg).ts, 5u);
  // Read: replies with the INITIAL state although write 5 was acked.
  out = f.deliver(*obj, f.topo.reader(0), wire::ReadMsg{1, 3, 0});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::ReadAckMsg>(out[0].msg);
  EXPECT_TRUE(ack.pw.is_bottom());
  EXPECT_TRUE(ack.w.tsval.is_bottom());
}

TEST(ForgerStrategy, FabricatesHigherCandidate) {
  Fixture f;
  auto obj = f.make(StrategyKind::Forger);
  f.deliver(*obj, f.topo.writer(), f.pw_msg(3));
  auto out = f.deliver(*obj, f.topo.reader(0), wire::ReadMsg{1, 1, 0});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::ReadAckMsg>(out[0].msg);
  EXPECT_GT(ack.w.tsval.ts, 3u) << "forged candidate must look fresh";
  EXPECT_EQ(ack.w.tsval.val, "FORGED");
  // The fabricated tsrarray must look writer-made: exactly S-t non-nil rows.
  int non_nil = 0;
  for (const auto& row : ack.w.tsrarray.rows()) {
    if (row.has_value()) ++non_nil;
  }
  EXPECT_EQ(non_nil, f.res.quorum());
  // Benign forger rows carry no accusations.
  for (const auto& row : ack.w.tsrarray.rows()) {
    if (row.has_value()) {
      for (const auto v : *row) EXPECT_EQ(v, 0u);
    }
  }
}

TEST(AccuserStrategy, RowsAccuseTheRequestingReader) {
  Fixture f;
  auto obj = f.make(StrategyKind::Accuser);
  auto out = f.deliver(*obj, f.topo.reader(1), wire::ReadMsg{1, 2, 0});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::ReadAckMsg>(out[0].msg);
  bool accused = false;
  for (const auto& row : ack.w.tsrarray.rows()) {
    if (row.has_value() && row->size() > 1 && (*row)[1] > 1'000'000) {
      accused = true;
    }
  }
  EXPECT_TRUE(accused) << "accuser must claim huge reader timestamps";
}

TEST(EquivocatorStrategy, SendsHonestPlusForgedReplies) {
  Fixture f;
  auto obj = f.make(StrategyKind::Equivocator);
  auto out = f.deliver(*obj, f.topo.reader(0), wire::ReadMsg{1, 4, 0});
  ASSERT_EQ(out.size(), 2u) << "honest reply + forged reply";
  // Distinct readers get distinct forged values.
  auto obj2 = f.make(StrategyKind::Equivocator);
  auto out0 = f.deliver(*obj2, f.topo.reader(0), wire::ReadMsg{1, 4, 0});
  auto obj3 = f.make(StrategyKind::Equivocator);
  auto out1 = f.deliver(*obj3, f.topo.reader(1), wire::ReadMsg{1, 4, 0});
  const auto& forged0 = std::get<wire::ReadAckMsg>(out0[0].msg);
  const auto& forged1 = std::get<wire::ReadAckMsg>(out1[0].msg);
  EXPECT_NE(forged0.w.tsval, forged1.w.tsval);
}

TEST(StaggerStrategy, EscalatesTimestamps) {
  Fixture f;
  auto obj = f.make(StrategyKind::Stagger);
  Ts prev = 0;
  for (int k = 1; k <= 4; ++k) {
    auto out = f.deliver(*obj, f.topo.reader(0),
                         wire::ReadMsg{1, static_cast<ReaderTs>(k), 0});
    ASSERT_EQ(out.size(), 1u);
    const auto ts = std::get<wire::ReadAckMsg>(out[0].msg).w.tsval.ts;
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

TEST(ColludeStrategy, IdenticalForgeryAcrossColluders) {
  Fixture f;
  auto a = f.make(StrategyKind::Collude);
  auto b = make_byzantine(StrategyKind::Collude, Flavor::Safe, f.topo, f.res,
                          1);
  auto out_a = f.deliver(*a, f.topo.reader(0), wire::ReadMsg{1, 1, 0});
  auto out_b = f.deliver(*b, f.topo.reader(0), wire::ReadMsg{1, 1, 0});
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(std::get<wire::ReadAckMsg>(out_a[0].msg).w,
            std::get<wire::ReadAckMsg>(out_b[0].msg).w)
      << "colluders must rendezvous on the same candidate without "
         "communication";
}

TEST(RegularFlavor, ForgerFabricatesHistorySlot) {
  Fixture f;
  auto obj = f.make(StrategyKind::Forger, Flavor::Regular);
  f.deliver(*obj, f.topo.writer(), f.pw_msg(2));
  auto out = f.deliver(*obj, f.topo.reader(0), wire::HistReadMsg{1, 1, 0, 0});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::HistReadAckMsg>(out[0].msg);
  bool has_fake = false;
  for (const auto& [ts, entry] : ack.history) {
    if (ts > 2 && entry.w.has_value()) has_fake = true;
  }
  EXPECT_TRUE(has_fake);
}

TEST(PollFlavor, ForgerAnswersPolls) {
  Fixture f;
  auto obj = f.make(StrategyKind::Forger, Flavor::Poll);
  auto out = f.deliver(*obj, f.topo.reader(0), wire::PollMsg{9, 1});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::PollAckMsg>(out[0].msg);
  EXPECT_EQ(ack.seq, 9u);
  EXPECT_EQ(ack.w.val, "FORGED");
}

TEST(AuthFlavor, ForgerCannotProduceValidMac) {
  Fixture f;
  auto obj = f.make(StrategyKind::Forger, Flavor::Auth);
  auto out = f.deliver(*obj, f.topo.reader(0), wire::AuthReadMsg{3});
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<wire::AuthReadAckMsg>(out[0].msg);
  EXPECT_EQ(ack.mac, std::string(32, '\xee')) << "garbage, not a valid MAC";
}

TEST(AbdFlavor, ForgerPoisonsQueries) {
  Fixture f;
  auto obj = f.make(StrategyKind::Forger, Flavor::Abd);
  f.deliver(*obj, f.topo.writer(), wire::AbdStoreMsg{1, TsVal{4, "x"}});
  auto out = f.deliver(*obj, f.topo.reader(0), wire::AbdQueryMsg{2});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(std::get<wire::AbdQueryAckMsg>(out[0].msg).tsval.ts, 4u);
}

TEST(AllStrategies, KeepTheWriterLive) {
  // Every strategy must ack PW/W (or stay silent, which the quorum absorbs):
  // specifically the non-silent ones must produce exactly one ack.
  Fixture f;
  for (const auto kind :
       {StrategyKind::Amnesiac, StrategyKind::Forger, StrategyKind::Accuser,
        StrategyKind::Equivocator, StrategyKind::Stagger,
        StrategyKind::Collude}) {
    auto obj = f.make(kind);
    auto out = f.deliver(*obj, f.topo.writer(), f.pw_msg(1));
    ASSERT_EQ(out.size(), 1u) << to_string(kind);
    EXPECT_TRUE(std::holds_alternative<wire::PwAckMsg>(out[0].msg))
        << to_string(kind);
    out = f.deliver(*obj, f.topo.writer(),
                    wire::WMsg{1, TsVal{1, "v"},
                               WTuple{TsVal{1, "v"}, init_tsrarray(7)}});
    ASSERT_EQ(out.size(), 1u) << to_string(kind);
    EXPECT_TRUE(std::holds_alternative<wire::WAckMsg>(out[0].msg))
        << to_string(kind);
  }
}

TEST(AllStrategies, WireMessagesAreWellFormed) {
  // Everything a strategy emits must survive the codec round-trip: the
  // simulator's reserialize mode depends on it.
  Fixture f;
  for (const auto kind :
       {StrategyKind::Amnesiac, StrategyKind::Forger, StrategyKind::Accuser,
        StrategyKind::Equivocator, StrategyKind::Stagger,
        StrategyKind::Collude, StrategyKind::Random}) {
    for (const auto flavor : {Flavor::Safe, Flavor::Regular, Flavor::Poll,
                              Flavor::Auth, Flavor::Abd}) {
      auto obj = make_byzantine(kind, flavor, f.topo, f.res, 0);
      std::vector<wire::Message> requests = {
          f.pw_msg(1), wire::ReadMsg{1, 1, 0}, wire::HistReadMsg{1, 2, 0, 0},
          wire::PollMsg{1, 1}, wire::AuthReadMsg{1}, wire::AbdQueryMsg{1}};
      for (const auto& req : requests) {
        for (const auto& out : f.deliver(*obj, f.topo.reader(0), req)) {
          SCOPED_TRACE(to_string(kind));
          const auto decoded = wire::decode(wire::encode(out.msg));
          ASSERT_TRUE(decoded.has_value());
          EXPECT_EQ(*decoded, out.msg);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rr::adversary
