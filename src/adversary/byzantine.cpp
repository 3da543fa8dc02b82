#include "adversary/byzantine.hpp"

#include <unordered_map>
#include <utility>

#include "baselines/abd.hpp"
#include "baselines/authenticated.hpp"
#include "baselines/polling.hpp"
#include "common/assert.hpp"

namespace rr::adversary {
namespace {

/// Reader timestamp far above anything a real reader issues in our runs;
/// used by the accuser strategy to trigger conflicts.
constexpr ReaderTs kAccusation = 1'000'000'000ULL;

/// Deterministic rendezvous timestamp for colluders (no communication
/// needed: all colluders forge the same candidate).
constexpr Ts kColludeTs = 999'983ULL;

bool is_write_message(const wire::Message& m) {
  return std::holds_alternative<wire::PwMsg>(m) ||
         std::holds_alternative<wire::WMsg>(m) ||
         std::holds_alternative<wire::BlWriteMsg>(m) ||
         std::holds_alternative<wire::FwWriteMsg>(m) ||
         std::holds_alternative<wire::AuthWriteMsg>(m) ||
         std::holds_alternative<wire::AbdStoreMsg>(m);
}

bool is_read_request(const wire::Message& m) {
  return std::holds_alternative<wire::ReadMsg>(m) ||
         std::holds_alternative<wire::HistReadMsg>(m) ||
         std::holds_alternative<wire::PollMsg>(m) ||
         std::holds_alternative<wire::AuthReadMsg>(m) ||
         std::holds_alternative<wire::AbdQueryMsg>(m);
}

class ByzantineBase : public net::Process {
 public:
  ByzantineBase(Flavor flavor, const Topology& topo, const Resilience& res,
                int index)
      : flavor_(flavor), topo_(topo), res_(res), index_(index) {
    switch (flavor) {
      case Flavor::Safe:
        inner_ = std::make_unique<objects::SafeObject>(topo, index);
        break;
      case Flavor::Regular:
        inner_ = std::make_unique<objects::RegularObject>(topo, index);
        break;
      case Flavor::Poll:
        inner_ = std::make_unique<baselines::PollObject>(topo, index);
        break;
      case Flavor::Auth:
        inner_ = std::make_unique<baselines::AuthObject>(topo, index);
        break;
      case Flavor::Abd:
        inner_ = std::make_unique<baselines::AbdObject>(topo, index);
        break;
    }
  }

 protected:
  /// Runs the embedded honest automaton, returning (not sending) its
  /// replies; also tracks the highest writer timestamp observed so forged
  /// candidates stay "fresh".
  std::vector<Outgoing> run_honest(net::Context& ctx, ProcessId from,
                                   const wire::Message& msg) {
    observe(msg);
    CapturingContext cap(ctx);
    inner_->on_message(cap, from, msg);
    return cap.take();
  }

  void forward(net::Context& ctx, std::vector<Outgoing> outs) {
    for (auto& out : outs) ctx.send(out.to, std::move(out.msg));
  }

  void observe(const wire::Message& msg) {
    if (const auto* pw = std::get_if<wire::PwMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, pw->ts);
    } else if (const auto* w = std::get_if<wire::WMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, w->ts);
    } else if (const auto* bl = std::get_if<wire::BlWriteMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, bl->ts);
    } else if (const auto* fw = std::get_if<wire::FwWriteMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, fw->ts);
    } else if (const auto* au = std::get_if<wire::AuthWriteMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, au->ts);
    } else if (const auto* ab = std::get_if<wire::AbdStoreMsg>(&msg)) {
      seen_ts_ = std::max(seen_ts_, ab->tsval.ts);
    }
  }

  /// Fabricates a tuple that looks like a legitimately written one: the
  /// tsrarray has exactly S-t non-nil rows (the shape an honest writer
  /// produces). With `accuse`, every row claims reader `reader_j` issued an
  /// absurdly high timestamp, arming the conflict predicate against every
  /// object the row mentions.
  [[nodiscard]] WTuple forge_tuple(Ts ts, const Value& val, bool accuse,
                                   int reader_j) {
    forged_.reset(static_cast<std::size_t>(res_.num_objects));
    for (int i = 0; i < res_.quorum() && i < res_.num_objects; ++i) {
      const auto row = forged_.set(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(res_.num_readers));
      if (accuse && reader_j >= 0 &&
          reader_j < static_cast<int>(row.size())) {
        row[static_cast<std::size_t>(reader_j)] = kAccusation;
      }
    }
    return WTuple{TsVal{ts, val}, forged_.seal()};
  }

  /// Builds the protocol-appropriate forged reply to a read-type request.
  /// Returns empty when the request is not a read for this flavor.
  [[nodiscard]] std::vector<Outgoing> forged_read_reply(
      ProcessId from, const wire::Message& msg, Ts fake_ts, const Value& val,
      bool accuse) {
    std::vector<Outgoing> outs;
    const int reader_j = topo_.role_of(from) == Role::Reader
                             ? topo_.reader_index(from)
                             : -1;
    if (const auto* rd = std::get_if<wire::ReadMsg>(&msg)) {
      if (flavor_ == Flavor::Safe) {
        const WTuple fake = forge_tuple(fake_ts, val, accuse, reader_j);
        outs.push_back(Outgoing{
            from, wire::ReadAckMsg{rd->round, rd->tsr, fake.tsval, fake}});
      } else if (flavor_ == Flavor::Regular) {
        const WTuple fake = forge_tuple(fake_ts, val, accuse, reader_j);
        wire::HistReadAckMsg ack;
        ack.round = rd->round;
        ack.tsr = rd->tsr;
        ack.history[0] = wire::HistEntry{TsVal::bottom(), w0_};
        ack.history[fake_ts] = wire::HistEntry{fake.tsval, fake};
        outs.push_back(Outgoing{from, std::move(ack)});
      }
    } else if (const auto* hrd = std::get_if<wire::HistReadMsg>(&msg)) {
      if (flavor_ == Flavor::Regular) {
        // Ignore the requested floor: ship the forged slot (plus the initial
        // one) regardless of what the reader claims to have. An honest-shaped
        // delta could not be more damaging than this superset.
        const WTuple fake = forge_tuple(fake_ts, val, accuse, reader_j);
        wire::HistReadAckMsg ack;
        ack.round = hrd->round;
        ack.tsr = hrd->tsr;
        ack.history[0] = wire::HistEntry{TsVal::bottom(), w0_};
        ack.history[fake_ts] = wire::HistEntry{fake.tsval, fake};
        outs.push_back(Outgoing{from, std::move(ack)});
      }
    } else if (const auto* poll = std::get_if<wire::PollMsg>(&msg)) {
      if (flavor_ == Flavor::Poll) {
        const TsVal fake{fake_ts, val};
        outs.push_back(
            Outgoing{from, wire::PollAckMsg{poll->seq, poll->round, fake,
                                            fake}});
      }
    } else if (const auto* au = std::get_if<wire::AuthReadMsg>(&msg)) {
      if (flavor_ == Flavor::Auth) {
        // Byzantine objects do not hold the writer's key: the best they can
        // do is attach garbage, which readers reject.
        outs.push_back(Outgoing{
            from, wire::AuthReadAckMsg{au->seq, fake_ts, val,
                                       std::string(32, '\xee')}});
      }
    } else if (const auto* ab = std::get_if<wire::AbdQueryMsg>(&msg)) {
      if (flavor_ == Flavor::Abd) {
        outs.push_back(Outgoing{
            from, wire::AbdQueryAckMsg{ab->seq, TsVal{fake_ts, val}}});
      }
    }
    return outs;
  }

  Flavor flavor_;
  Topology topo_;
  Resilience res_;
  int index_;
  std::unique_ptr<net::Process> inner_;
  Ts seen_ts_{0};
  /// The initial tuple every forged history starts from.
  WTuple w0_{initial_wtuple(static_cast<std::size_t>(res_.num_objects))};
  TsrArray::Builder forged_;  ///< scratch for forge_tuple
};

class Silent final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;
  void on_message(net::Context&, ProcessId, const wire::Message&) override {}
};

class Amnesiac final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    // Acks writes so the writer's quorums complete, but never applies them:
    // reads are served by the embedded automaton, which is still in its
    // initial state.
    if (const auto* pw = std::get_if<wire::PwMsg>(&msg)) {
      ctx.send(from, wire::PwAckMsg{
                         pw->ts, TsrRow(static_cast<std::size_t>(
                                            res_.num_readers),
                                        0)});
    } else if (const auto* w = std::get_if<wire::WMsg>(&msg)) {
      ctx.send(from, wire::WAckMsg{w->ts});
    } else if (const auto* bl = std::get_if<wire::BlWriteMsg>(&msg)) {
      ctx.send(from, wire::BlWriteAckMsg{bl->phase, bl->ts});
    } else if (const auto* fw = std::get_if<wire::FwWriteMsg>(&msg)) {
      ctx.send(from, wire::FwWriteAckMsg{fw->ts});
    } else if (const auto* au = std::get_if<wire::AuthWriteMsg>(&msg)) {
      ctx.send(from, wire::AuthWriteAckMsg{au->ts});
    } else if (const auto* ab = std::get_if<wire::AbdStoreMsg>(&msg)) {
      ctx.send(from, wire::AbdStoreAckMsg{ab->seq});
    } else {
      forward(ctx, run_honest(ctx, from, msg));
    }
  }
};

class Forger final : public ByzantineBase {
 public:
  Forger(Flavor flavor, const Topology& topo, const Resilience& res,
         int index, bool accuse)
      : ByzantineBase(flavor, topo, res, index), accuse_(accuse) {}

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (is_write_message(msg)) {
      forward(ctx, std::move(honest));
      return;
    }
    auto forged = forged_read_reply(from, msg, seen_ts_ + 7,
                                    "FORGED", accuse_);
    if (forged.empty()) {
      forward(ctx, std::move(honest));  // not a read: behave honestly
    } else {
      forward(ctx, std::move(forged));
    }
  }

 private:
  bool accuse_;
};

class Equivocator final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (!is_write_message(msg)) {
      const int j = topo_.role_of(from) == Role::Reader
                        ? topo_.reader_index(from)
                        : 0;
      // A distinct forged candidate per reader, *on top of* the honest
      // reply: double-speak that a per-object set representation must
      // deduplicate.
      auto forged = forged_read_reply(
          from, msg, seen_ts_ + 3 + static_cast<Ts>(j),
          "EQUIVOCATE-" + std::to_string(j), /*accuse=*/false);
      forward(ctx, std::move(forged));
    }
    forward(ctx, std::move(honest));
  }
};

class Stagger final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (is_write_message(msg)) {
      forward(ctx, std::move(honest));
      return;
    }
    auto forged = forged_read_reply(from, msg,
                                    seen_ts_ + 100 + (counter_++),
                                    "STAGGER", /*accuse=*/false);
    if (forged.empty()) {
      forward(ctx, std::move(honest));
    } else {
      forward(ctx, std::move(forged));
    }
  }

 private:
  Ts counter_{0};
};

class Collude final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (is_write_message(msg)) {
      forward(ctx, std::move(honest));
      return;
    }
    // All colluders fabricate the identical candidate (deterministic
    // rendezvous): the forged vouch count reaches exactly b, one short of
    // the safe() threshold.
    auto forged = forged_read_reply(from, msg, kColludeTs, "COLLUDE",
                                    /*accuse=*/false);
    if (forged.empty()) {
      forward(ctx, std::move(honest));
    } else {
      forward(ctx, std::move(forged));
    }
  }
};

class RandomLiar final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (is_write_message(msg)) {
      forward(ctx, std::move(honest));
      return;
    }
    const double coin = ctx.rng().uniform01();
    if (coin < 0.4) {
      forward(ctx, std::move(honest));
    } else if (coin < 0.7) {
      const Ts bump = ctx.rng().uniform(1, 50);
      auto forged = forged_read_reply(from, msg, seen_ts_ + bump, "RANDOM",
                                      ctx.rng().chance(0.3));
      if (forged.empty()) {
        forward(ctx, std::move(honest));
      } else {
        forward(ctx, std::move(forged));
      }
    }
    // else: stay silent for this request.
  }
};

class StaleReplayer final : public ByzantineBase {
 public:
  using ByzantineBase::ByzantineBase;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    auto honest = run_honest(ctx, from, msg);
    if (!is_read_request(msg)) {
      forward(ctx, std::move(honest));  // writes and bookkeeping: honest
      return;
    }
    const auto it = stash_.find(from);
    if (it == stash_.end()) {
      // First contact: capture this honest reply verbatim -- it is the
      // snapshot this peer will be served forever.
      stash_.emplace(from, honest);
      forward(ctx, std::move(honest));
      return;
    }
    // Replay the captured old reply, re-stamped onto the current request's
    // round/seq (a raw replay would be filtered as stale round traffic;
    // the *payload* -- timestamps, values, histories -- stays old).
    auto replayed = it->second;
    for (auto& out : replayed) restamp(out.msg, msg);
    forward(ctx, std::move(replayed));
  }

 private:
  static void restamp(wire::Message& reply, const wire::Message& request) {
    if (const auto* rd = std::get_if<wire::ReadMsg>(&request)) {
      if (auto* ack = std::get_if<wire::ReadAckMsg>(&reply)) {
        ack->round = rd->round;
        ack->tsr = rd->tsr;
      } else if (auto* hist = std::get_if<wire::HistReadAckMsg>(&reply)) {
        hist->round = rd->round;
        hist->tsr = rd->tsr;
      }
    } else if (const auto* hrd = std::get_if<wire::HistReadMsg>(&request)) {
      if (auto* hist = std::get_if<wire::HistReadAckMsg>(&reply)) {
        hist->round = hrd->round;
        hist->tsr = hrd->tsr;
      }
    } else if (const auto* poll = std::get_if<wire::PollMsg>(&request)) {
      if (auto* ack = std::get_if<wire::PollAckMsg>(&reply)) {
        ack->seq = poll->seq;
        ack->round = poll->round;
      }
    } else if (const auto* au = std::get_if<wire::AuthReadMsg>(&request)) {
      if (auto* ack = std::get_if<wire::AuthReadAckMsg>(&reply)) {
        ack->seq = au->seq;
      }
    } else if (const auto* ab = std::get_if<wire::AbdQueryMsg>(&request)) {
      if (auto* ack = std::get_if<wire::AbdQueryAckMsg>(&reply)) {
        ack->seq = ab->seq;
      }
    }
  }

  std::unordered_map<ProcessId, std::vector<Outgoing>> stash_;
};

}  // namespace

const char* to_string(StrategyKind k) {
  switch (k) {
    case StrategyKind::Silent: return "silent";
    case StrategyKind::Amnesiac: return "amnesiac";
    case StrategyKind::Forger: return "forger";
    case StrategyKind::Accuser: return "accuser";
    case StrategyKind::Equivocator: return "equivocator";
    case StrategyKind::Stagger: return "stagger";
    case StrategyKind::Collude: return "collude";
    case StrategyKind::Random: return "random";
    case StrategyKind::StaleReplay: return "stalereplay";
  }
  return "?";
}

std::optional<StrategyKind> strategy_from_name(std::string_view name) {
  for (const auto k : kAllStrategies) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::unique_ptr<net::Process> make_byzantine(StrategyKind kind, Flavor flavor,
                                             const Topology& topo,
                                             const Resilience& res,
                                             int object_index) {
  switch (kind) {
    case StrategyKind::Silent:
      return std::make_unique<Silent>(flavor, topo, res, object_index);
    case StrategyKind::Amnesiac:
      return std::make_unique<Amnesiac>(flavor, topo, res, object_index);
    case StrategyKind::Forger:
      return std::make_unique<Forger>(flavor, topo, res, object_index,
                                      /*accuse=*/false);
    case StrategyKind::Accuser:
      return std::make_unique<Forger>(flavor, topo, res, object_index,
                                      /*accuse=*/true);
    case StrategyKind::Equivocator:
      return std::make_unique<Equivocator>(flavor, topo, res, object_index);
    case StrategyKind::Stagger:
      return std::make_unique<Stagger>(flavor, topo, res, object_index);
    case StrategyKind::Collude:
      return std::make_unique<Collude>(flavor, topo, res, object_index);
    case StrategyKind::Random:
      return std::make_unique<RandomLiar>(flavor, topo, res, object_index);
    case StrategyKind::StaleReplay:
      return std::make_unique<StaleReplayer>(flavor, topo, res, object_index);
  }
  return nullptr;
}

}  // namespace rr::adversary
