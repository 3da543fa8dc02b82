#include "core/safe_reader.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/graph.hpp"

namespace rr::core {
namespace {

template <typename T>
bool contains(const std::vector<T>& xs, const T& x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

template <typename T>
void add_unique(std::vector<T>& xs, const T& x) {
  if (!contains(xs, x)) xs.push_back(x);
}

}  // namespace

SafeReader::SafeReader(const Resilience& res, const Topology& topo,
                       int reader_index)
    : res_(res), topo_(topo), reader_index_(reader_index) {
  RR_ASSERT(res.valid());
  RR_ASSERT(reader_index >= 0 && reader_index < res.num_readers);
  RR_ASSERT_MSG(res.num_objects <= 64,
                "conflict-quorum search uses 64-bit vertex masks");
  reports_.resize(static_cast<std::size_t>(res.num_objects));
}

void SafeReader::read(net::Context& ctx, ReadCallback cb) {
  RR_ASSERT_MSG(phase_ == Phase::Idle,
                "READ invoked while previous READ in progress");
  // Figure 4 lines 7-10. The per-read sets are emptied in place: their
  // capacity carries over from read to read.
  for (auto& rep : reports_) {
    rep.responded_round1 = false;
    rep.w_round1.clear();
    rep.w_any.clear();
    rep.pw_any.clear();
  }
  candidates_.clear();
  cb_ = std::move(cb);
  invoked_at_ = ctx.now();
  diag_ = Diag{};
  tsr_first_round_ = ++tsr_;
  phase_ = Phase::Round1;
  for (int i = 0; i < res_.num_objects; ++i) {
    ctx.send(topo_.object(i), wire::ReadMsg{1, tsr_, 0});
  }
}

void SafeReader::on_message(net::Context& ctx, ProcessId from,
                            const wire::Message& msg) {
  if (const auto* ack = std::get_if<wire::ReadAckMsg>(&msg)) {
    handle_ack(ctx, from, *ack);
  }
}

void SafeReader::handle_ack(net::Context& ctx, ProcessId from,
                            const wire::ReadAckMsg& m) {
  if (!topo_.is_object(from)) return;
  const auto i = static_cast<std::size_t>(topo_.object_index(from));
  // Acks are pattern-matched against the reader's *current* timestamp
  // (Figure 4 lines 21/25 match READk_ACK<tsr'_j, ...>): replies belonging
  // to earlier rounds or earlier reads are dropped.
  if (phase_ == Phase::Round1 && m.round == 1 && m.tsr == tsr_first_round_) {
    ++diag_.round1_acks;
    record_reports(i, m, /*round1=*/true);
    add_candidate(m.w);  // Figure 4 line 24
    reports_[i].responded_round1 = true;
    sweep_removals();
    if (round1_complete()) {
      start_round2(ctx);
      try_finish(ctx);  // round-1 evidence may already satisfy line 14
    }
  } else if (phase_ == Phase::Round2 && m.round == 2 &&
             m.tsr == tsr_first_round_ + 1) {
    ++diag_.round2_acks;
    record_reports(i, m, /*round1=*/false);
    sweep_removals();
    try_finish(ctx);
  }
}

void SafeReader::record_reports(std::size_t i, const wire::ReadAckMsg& m,
                                bool round1) {
  auto& rep = reports_[i];
  if (round1) add_unique(rep.w_round1, m.w);
  add_unique(rep.w_any, m.w);
  add_unique(rep.pw_any, m.pw);
}

void SafeReader::add_candidate(const WTuple& w) {
  for (const auto& c : candidates_) {
    if (c.tuple == w) return;  // already known (possibly already removed;
                               // removal is permanent -- RespondedWO only
                               // ever grows, so re-adding cannot resurrect)
  }
  candidates_.push_back(Candidate{w, false});
  ++diag_.candidates_added;
}

void SafeReader::sweep_removals() {
  // Figure 4 lines 27-28: drop any candidate that t+b+1 objects responded
  // without (in their w field, in any round of this read).
  const int threshold = res_.t + res_.b + 1;
  for (auto& cand : candidates_) {
    if (cand.removed) continue;
    int responded_without = 0;
    for (const auto& rep : reports_) {
      const bool has_other = std::any_of(
          rep.w_any.begin(), rep.w_any.end(),
          [&](const WTuple& w) { return !(w == cand.tuple); });
      if (has_other) ++responded_without;
    }
    if (responded_without >= threshold) {
      cand.removed = true;
      ++diag_.candidates_removed;
    }
  }
}

bool SafeReader::conflict(std::size_t i, std::size_t k) const {
  // Figure 4 line 1: object k reported (in round 1) a candidate tuple whose
  // embedded reader-timestamp row accuses object i of having reported a
  // timestamp this reader has not issued yet. At least one of i, k lies.
  const auto j = static_cast<std::size_t>(reader_index_);
  for (const auto& cand : candidates_) {
    if (cand.removed) continue;
    if (!contains(reports_[k].w_round1, cand.tuple)) continue;
    const auto row = cand.tuple.tsrarray.row(i);  // empty when nil
    if (j < row.size() && row[j] > tsr_first_round_) return true;
  }
  return false;
}

bool SafeReader::round1_complete() const {
  // Figure 4 line 11: exists Resp1OK subseteq Resp1 with |Resp1OK| >= S-t
  // and no pairwise conflict. Encoded as an independent-set query on the
  // (symmetrized) conflict graph over the responders.
  std::uint64_t responders = 0;
  int count = 0;
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    if (reports_[i].responded_round1) {
      responders |= 1ULL << i;
      ++count;
    }
  }
  if (count < res_.quorum()) return false;

  std::vector<std::uint64_t> adj(reports_.size(), 0);
  bool any_edge = false;
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    if (!(responders & (1ULL << i))) continue;
    for (std::size_t k = i + 1; k < reports_.size(); ++k) {
      if (!(responders & (1ULL << k))) continue;
      if (conflict(i, k) || conflict(k, i)) {
        adj[i] |= 1ULL << k;
        adj[k] |= 1ULL << i;
        any_edge = true;
      }
    }
  }
  if (!any_edge) return true;
  return has_independent_set(adj, responders, res_.quorum());
}

void SafeReader::start_round2(net::Context& ctx) {
  // Figure 4 lines 12-13.
  phase_ = Phase::Round2;
  ++tsr_;
  for (int i = 0; i < res_.num_objects; ++i) {
    ctx.send(topo_.object(i), wire::ReadMsg{2, tsr_, 0});
  }
}

bool SafeReader::vouches(const ObjReports& rep, const WTuple& c) const {
  // An object vouches for candidate c if it reported c itself (w field),
  // c's pair (pw field), or *any* value with a strictly higher timestamp
  // (Figure 4 line 3 and the prose of Section 4.2).
  for (const auto& w : rep.w_any) {
    if (w == c || w.tsval.ts > c.tsval.ts) return true;
  }
  for (const auto& pw : rep.pw_any) {
    if (pw == c.tsval || pw.ts > c.tsval.ts) return true;
  }
  return false;
}

bool SafeReader::is_safe(const WTuple& c) const {
  int vouchers = 0;
  for (const auto& rep : reports_) {
    if (vouches(rep, c)) ++vouchers;
  }
  return vouchers >= res_.b + 1;
}

void SafeReader::try_finish(net::Context& ctx) {
  if (phase_ != Phase::Round2) return;
  // Figure 4 lines 14-20.
  bool any_live = false;
  Ts max_ts = 0;
  for (const auto& cand : candidates_) {
    if (cand.removed) continue;
    any_live = true;
    max_ts = std::max(max_ts, cand.tuple.tsval.ts);
  }
  if (!any_live) {
    // C drained: only possible when the read is concurrent with writes
    // (Theorem 1 shows the latest completely-written tuple is never
    // removed); return the default value v0.
    complete(ctx, TsVal::bottom(), /*returned_default=*/true);
    return;
  }
  for (const auto& cand : candidates_) {
    if (cand.removed || cand.tuple.tsval.ts != max_ts) continue;
    if (is_safe(cand.tuple)) {
      complete(ctx, cand.tuple.tsval, /*returned_default=*/false);
      return;
    }
  }
}

void SafeReader::complete(net::Context& ctx, TsVal v, bool returned_default) {
  phase_ = Phase::Idle;
  ReadResult result;
  result.tsval = std::move(v);
  result.rounds = 2;
  result.invoked_at = invoked_at_;
  result.completed_at = ctx.now();
  result.returned_default = returned_default;
  auto cb = std::move(cb_);
  cb_ = nullptr;
  if (cb) cb(result);
}

}  // namespace rr::core
