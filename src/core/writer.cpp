#include "core/writer.hpp"

#include <algorithm>
#include <utility>

namespace rr::core {

Writer::Writer(const Resilience& res, const Topology& topo)
    : res_(res), topo_(topo) {
  RR_ASSERT(res.valid());
  RR_ASSERT(topo.num_objects() == res.num_objects);
  w_ = initial_wtuple(static_cast<std::size_t>(res.num_objects));
}

void Writer::write(net::Context& ctx, Value v, WriteCallback cb) {
  RR_ASSERT_MSG(phase_ == Phase::Idle,
                "WRITE invoked while previous WRITE in progress");
  // Figure 2 lines 3-5.
  ++ts_;
  current_tsrarray_.reset(static_cast<std::size_t>(res_.num_objects));
  pw_ = TsVal{ts_, std::move(v)};
  pw_acked_.assign(static_cast<std::size_t>(res_.num_objects), false);
  w_acked_.assign(static_cast<std::size_t>(res_.num_objects), false);
  pw_ack_count_ = 0;
  w_ack_count_ = 0;
  cb_ = std::move(cb);
  invoked_at_ = ctx.now();
  phase_ = Phase::Pw;
  rounds_ = 1;
  // The PW message carries the previous write's tuple in `w`, completing
  // that write at objects which missed its W round.
  for (int i = 0; i < res_.num_objects; ++i) {
    ctx.send(topo_.object(i), wire::PwMsg{ts_, pw_, w_});
  }
}

void Writer::on_message(net::Context& ctx, ProcessId from,
                        const wire::Message& msg) {
  if (const auto* ack = std::get_if<wire::PwAckMsg>(&msg)) {
    handle_pw_ack(ctx, from, *ack);
  } else if (const auto* ack2 = std::get_if<wire::WAckMsg>(&msg)) {
    handle_w_ack(ctx, from, *ack2);
  }
}

void Writer::handle_pw_ack(net::Context& ctx, ProcessId from,
                           const wire::PwAckMsg& m) {
  if (phase_ != Phase::Pw || m.ts != ts_) return;  // stale or foreign ack
  if (!topo_.is_object(from)) return;
  const auto i = static_cast<std::size_t>(topo_.object_index(from));
  if (pw_acked_[i]) return;  // at most one row per object per write
  pw_acked_[i] = true;
  ++pw_ack_count_;
  // Figure 2 line 11: record the object's reader-timestamp row. A Byzantine
  // object may report a row of the wrong width; normalize to R entries
  // (missing entries read as 0, i.e. "no conflict evidence") so that
  // downstream indexing is total.
  const auto row = current_tsrarray_.set(
      i, static_cast<std::size_t>(topo_.num_readers()));
  std::copy_n(m.tsr.begin(), std::min(m.tsr.size(), row.size()), row.begin());

  if (pw_ack_count_ >= res_.quorum()) {
    // Figure 2 lines 7-8: seal the harvested rows into the tuple and enter
    // the W round; every W message and the next write's PW share it.
    w_ = WTuple{pw_, current_tsrarray_.seal()};
    phase_ = Phase::W;
    rounds_ = 2;
    for (int k = 0; k < res_.num_objects; ++k) {
      ctx.send(topo_.object(k), wire::WMsg{ts_, pw_, w_});
    }
  }
}

void Writer::handle_w_ack(net::Context& ctx, ProcessId from,
                          const wire::WAckMsg& m) {
  if (phase_ != Phase::W || m.ts != ts_) return;
  if (!topo_.is_object(from)) return;
  const auto i = static_cast<std::size_t>(topo_.object_index(from));
  if (w_acked_[i]) return;
  w_acked_[i] = true;
  ++w_ack_count_;
  if (w_ack_count_ >= res_.quorum()) complete(ctx);
}

void Writer::complete(net::Context& ctx) {
  phase_ = Phase::Idle;
  WriteResult result;
  result.ts = ts_;
  result.rounds = rounds_;
  result.invoked_at = invoked_at_;
  result.completed_at = ctx.now();
  // Move the callback out first: it may immediately invoke the next write.
  auto cb = std::move(cb_);
  cb_ = nullptr;
  if (cb) cb(result);
}

}  // namespace rr::core
