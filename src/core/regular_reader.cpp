#include "core/regular_reader.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"
#include "common/graph.hpp"

namespace rr::core {

RegularReader::RegularReader(const Resilience& res, const Topology& topo,
                             int reader_index, bool optimized)
    : res_(res),
      topo_(topo),
      reader_index_(reader_index),
      optimized_(optimized) {
  RR_ASSERT(res.valid());
  RR_ASSERT(reader_index >= 0 && reader_index < res.num_readers);
  RR_ASSERT_MSG(res.num_objects <= 64,
                "conflict-quorum search uses 64-bit vertex masks");
  mirror_.resize(static_cast<std::size_t>(res.num_objects));
  have_.assign(static_cast<std::size_t>(res.num_objects), 0);
}

void RegularReader::read(net::Context& ctx, ReadCallback cb) {
  RR_ASSERT_MSG(phase_ == Phase::Idle,
                "READ invoked while previous READ in progress");
  // Figure 6 lines 7-10.
  replied1_.assign(static_cast<std::size_t>(res_.num_objects), 0);
  replied2_.assign(static_cast<std::size_t>(res_.num_objects), 0);
  candidates_.clear();
  cb_ = std::move(cb);
  invoked_at_ = ctx.now();
  diag_ = Diag{};
  tsr_first_round_ = ++tsr_;
  request_cache_ts_ = optimized_ ? cache_.ts : 0;
  phase_ = Phase::Round1;
  for (int i = 0; i < res_.num_objects; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ctx.send(topo_.object(i),
             wire::HistReadMsg{1, tsr_, request_cache_ts_, have_[ui]});
  }
}

void RegularReader::on_message(net::Context& ctx, ProcessId from,
                               const wire::Message& msg) {
  if (const auto* ack = std::get_if<wire::HistReadAckMsg>(&msg)) {
    handle_ack(ctx, from, *ack);
  }
}

void RegularReader::handle_ack(net::Context& ctx, ProcessId from,
                               const wire::HistReadAckMsg& m) {
  if (!topo_.is_object(from)) return;
  const auto i = static_cast<std::size_t>(topo_.object_index(from));
  // Figure 6 lines 17-25: one reply per object per round (the tsr[i] guard),
  // pattern-matched against the reader's current timestamp.
  if (phase_ == Phase::Round1 && m.round == 1 && m.tsr == tsr_first_round_ &&
      !replied1_[i]) {
    ++diag_.round1_acks;
    replied1_[i] = 1;
    merge_delta(i, m);
    add_candidates_from_mirror(i);  // Figure 6 line 20
    sweep_removals();
    if (round1_complete()) {
      start_round2(ctx);
      try_finish(ctx);
    }
  } else if (phase_ == Phase::Round2 && m.round == 2 &&
             m.tsr == tsr_first_round_ + 1 && !replied2_[i]) {
    ++diag_.round2_acks;
    replied2_[i] = 1;
    merge_delta(i, m);
    sweep_removals();
    try_finish(ctx);
  } else if (m.resync == 0) {
    // Late ack (the round closed at a quorum without this object, or the
    // READ already returned): the delta is still a correct suffix of the
    // object's history and the mirror union is monotone, so merge it anyway.
    // Without this, a chronically slow object's `have` floor goes stale and
    // its deltas regrow the O(history) tail. It takes no part in this
    // round's candidate/removal bookkeeping (not marked replied). Resync
    // suffixes are exempt: the mirror rebuild is not monotone and may gap
    // against a floor that has moved on.
    merge_delta(i, m);
  }
}

void RegularReader::merge_delta(std::size_t i, const wire::HistReadAckMsg& m) {
  diag_.history_slots_received += m.history.size();
  if (m.resync != 0) {
    // The object's hard cap evicted slots below our floor: the shipped
    // suffix starts at m.since > floor, so our mirror can no longer be
    // extended gap-free. Rebuild it from the flagged suffix.
    ++diag_.resyncs;
    mirror_[i].clear();
  }
  // Monotone union: an engaged pw/w in the mirror is never regressed to nil
  // by a reordered or replayed delta, so a slot can never flip from vouching
  // back to denying.
  mirror_[i].merge(m.history);
  if (!mirror_[i].empty()) {
    have_[i] = std::prev(mirror_[i].end())->first;
  }
}

void RegularReader::add_candidates_from_mirror(std::size_t i) {
  // Figure 6 line 20 over the mirror: the mirror suffix from the requested
  // cache_ts is exactly the history a full Section 5.1 suffix reply would
  // have carried; the delta only shipped the part we lacked.
  const auto& h = mirror_[i];
  for (auto it = h.lower_bound(request_cache_ts_); it != h.end(); ++it) {
    if (!it->second.w.has_value()) continue;
    const WTuple& w = *it->second.w;
    const bool known = std::any_of(
        candidates_.begin(), candidates_.end(),
        [&](const Candidate& c) { return c.tuple == w; });
    if (!known) {
      const auto j = static_cast<std::size_t>(reader_index_);
      bool accuses = false;
      for (std::size_t k = 0; k < w.tsrarray.size() && !accuses; ++k) {
        const auto row = w.tsrarray.row(k);
        accuses = j < row.size() && row[j] > tsr_first_round_;
      }
      candidates_.push_back(Candidate{w, false, accuses});
      ++diag_.candidates_added;
    }
  }
}

bool RegularReader::replied(int rnd, std::size_t i) const {
  return (rnd == 1 ? replied1_[i] : replied2_[i]) != 0;
}

bool RegularReader::object_vouches(std::size_t i, const WTuple& c) const {
  // Figure 6 line 3: a replied object's history confirms slot c.ts with c's
  // pair (pw) or c itself (w). The mirror stands in for the replied
  // histories of both rounds.
  if (!replied(1, i) && !replied(2, i)) return false;
  const auto& h = mirror_[i];
  const auto it = h.find(c.tsval.ts);
  if (it == h.end()) return false;
  return (it->second.pw.has_value() && *it->second.pw == c.tsval) ||
         (it->second.w.has_value() && *it->second.w == c);
}

bool RegularReader::object_denies(std::size_t i, const WTuple& c) const {
  // Figure 6 line 2: a replied object's history has no w entry for slot
  // c.ts, or a mismatching pw or w. A missing slot reads as <nil, nil>.
  if (!replied(1, i) && !replied(2, i)) return false;
  const auto& h = mirror_[i];
  const auto it = h.find(c.tsval.ts);
  if (it == h.end()) return true;
  const auto& e = it->second;
  return !e.w.has_value() || !(*e.w == c) || !e.pw.has_value() ||
         !(*e.pw == c.tsval);
}

bool RegularReader::is_safe(const WTuple& c) const {
  int vouchers = 0;
  for (std::size_t i = 0; i < mirror_.size(); ++i) {
    if (object_vouches(i, c)) ++vouchers;
  }
  return vouchers >= res_.b + 1;
}

bool RegularReader::is_invalid(const WTuple& c) const {
  int deniers = 0;
  for (std::size_t i = 0; i < mirror_.size(); ++i) {
    if (object_denies(i, c)) ++deniers;
  }
  return deniers >= res_.t + res_.b + 1;
}

void RegularReader::sweep_removals() {
  // Figure 6 lines 26-27.
  for (auto& cand : candidates_) {
    if (!cand.removed && is_invalid(cand.tuple)) {
      cand.removed = true;
      ++diag_.candidates_removed;
    }
  }
}

bool RegularReader::conflict(std::size_t i, std::size_t k) const {
  // Figure 6 line 1: object k's round-1 history contains a candidate tuple
  // accusing object i of a reader timestamp above tsrFR.
  const auto j = static_cast<std::size_t>(reader_index_);
  if (!replied(1, k)) return false;
  const auto& h = mirror_[k];
  for (const auto& cand : candidates_) {
    if (cand.removed) continue;
    for (const auto& [ts, entry] : h) {
      if (!entry.w.has_value() || !(*entry.w == cand.tuple)) continue;
      const auto row = cand.tuple.tsrarray.row(i);  // empty when nil
      if (j < row.size() && row[j] > tsr_first_round_) return true;
    }
  }
  return false;
}

bool RegularReader::round1_complete() const {
  std::uint64_t responders = 0;
  int count = 0;
  for (std::size_t i = 0; i < replied1_.size(); ++i) {
    if (replied1_[i] != 0) {
      responders |= 1ULL << i;
      ++count;
    }
  }
  if (count < res_.quorum()) return false;

  // No candidate carries an accusing tsr entry for this reader: no conflict
  // edge can exist, so any quorum of responders is independent.
  const bool any_accuser = std::any_of(
      candidates_.begin(), candidates_.end(),
      [](const Candidate& c) { return !c.removed && c.accuses; });
  if (!any_accuser) return true;

  std::vector<std::uint64_t> adj(replied1_.size(), 0);
  bool any_edge = false;
  for (std::size_t i = 0; i < replied1_.size(); ++i) {
    if (!(responders & (1ULL << i))) continue;
    for (std::size_t k = i + 1; k < replied1_.size(); ++k) {
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

void RegularReader::start_round2(net::Context& ctx) {
  phase_ = Phase::Round2;
  ++tsr_;
  for (int i = 0; i < res_.num_objects; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ctx.send(topo_.object(i),
             wire::HistReadMsg{2, tsr_, request_cache_ts_, have_[ui]});
  }
}

void RegularReader::try_finish(net::Context& ctx) {
  if (phase_ != Phase::Round2) return;
  // Figure 6 lines 14-16, plus the Section 5.1 cache fallback when C drains.
  // The fallback is sound for both variants: the cache is the last returned
  // value, and any write completed before this read either exceeds it (then
  // it is a candidate -- the mirrors cover everything above the cache -- and
  // with >= S-t-b correct holders it cannot be invalidated, so C does not
  // drain) or is covered by returning the cache itself.
  bool any_live = false;
  Ts max_ts = 0;
  for (const auto& cand : candidates_) {
    if (cand.removed) continue;
    any_live = true;
    max_ts = std::max(max_ts, cand.tuple.tsval.ts);
  }
  if (!any_live) {
    diag_.returned_from_cache = true;
    complete(ctx, cache_, /*from_cache=*/true);
    return;
  }
  for (const auto& cand : candidates_) {
    if (cand.removed || cand.tuple.tsval.ts != max_ts) continue;
    if (is_safe(cand.tuple)) {
      complete(ctx, cand.tuple.tsval, /*from_cache=*/false);
      return;
    }
  }
}

void RegularReader::complete(net::Context& ctx, TsVal v, bool from_cache) {
  phase_ = Phase::Idle;
  cache_ = v;  // Section 5.1: remember the last returned value
  // Reader-side GC mirroring the objects' watermark rule: slots below the
  // cache can only ever matter as denials against candidates older than a
  // value this reader already returned, and a missing slot denies too.
  for (auto& mir : mirror_) {
    mir.erase(mir.begin(), mir.lower_bound(cache_.ts));
  }
  ReadResult result;
  result.tsval = std::move(v);
  result.rounds = 2;
  result.invoked_at = invoked_at_;
  result.completed_at = ctx.now();
  result.returned_default = from_cache;
  auto cb = std::move(cb_);
  cb_ = nullptr;
  if (cb) cb(result);
}

}  // namespace rr::core
