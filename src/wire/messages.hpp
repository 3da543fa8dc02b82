// Wire-level message vocabulary for every protocol in the library.
//
// Messages are plain value types carried by std::variant. Both runtimes (the
// discrete-event simulator and the threaded cluster) move Message values; the
// binary codec (wire/codec.hpp) provides serialization for byte accounting,
// snapshotting and fuzz testing.
//
// Naming follows the paper where a counterpart exists:
//   PW / PW_ACK / W / WRITE_ACK   -- Figure 2/3 (writer rounds)
//   READk / READk_ACK             -- Figure 3/4 (safe storage reader rounds)
//   READk_ACK with history        -- Figure 5/6 (regular storage)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace rr::wire {

// ---------------------------------------------------------------------------
// Guerraoui-Vukolic safe & regular storage (src/core)
// ---------------------------------------------------------------------------

/// Writer round 1 ("pre-write"): carries the fresh pair in `pw` and the tuple
/// of the *previous* WRITE in `w` (Figure 2 line 5).
struct PwMsg {
  Ts ts{};
  TsVal pw{};
  WTuple w{};
  friend bool operator==(const PwMsg&, const PwMsg&) = default;
};

/// Object's reply to PW: echoes the object's current reader-timestamp row
/// (Figure 3 line 6).
struct PwAckMsg {
  Ts ts{};
  TsrRow tsr{};
  friend bool operator==(const PwAckMsg&, const PwAckMsg&) = default;
};

/// Writer round 2 ("write"): `w` now carries <pw, currenttsrarray>
/// (Figure 2 line 8).
struct WMsg {
  Ts ts{};
  TsVal pw{};
  WTuple w{};
  friend bool operator==(const WMsg&, const WMsg&) = default;
};

struct WAckMsg {
  Ts ts{};
  friend bool operator==(const WAckMsg&, const WAckMsg&) = default;
};

/// Reader round k in {1,2}. `tsr` is the reader's fresh local timestamp; the
/// object stores it into its tsr[j] field before replying (the paper's key
/// "readers write control data" mechanism).
///
/// `cache_ts` implements the Section 5.1 optimization for the regular
/// storage: objects only ship the history suffix starting at cache_ts. The
/// unoptimized regular protocol and the safe protocol send cache_ts = 0.
struct ReadMsg {
  std::uint8_t round{1};
  ReaderTs tsr{};
  Ts cache_ts{0};
  friend bool operator==(const ReadMsg&, const ReadMsg&) = default;
};

/// Object's reply in the *safe* storage: current pw and w fields
/// (Figure 3 line 16).
struct ReadAckMsg {
  std::uint8_t round{1};
  ReaderTs tsr{};
  TsVal pw{};
  WTuple w{};
  friend bool operator==(const ReadAckMsg&, const ReadAckMsg&) = default;
};

/// One history slot of a regular-storage object: <pw, w> at some writer
/// timestamp. `w` is nil between the PW and W rounds of that write
/// (Figure 5 line 6).
struct HistEntry {
  std::optional<TsVal> pw{};
  std::optional<WTuple> w{};
  friend bool operator==(const HistEntry&, const HistEntry&) = default;
};

/// Ordered write history (keyed by writer timestamp).
///
/// Stored as a sorted flat ring searched by binary search: the slots live in
/// a flat vector whose live range is [head_, v_.size()). Histories are
/// copied into every HIST_ACK and moved through the simulator on every
/// delivery, so the contiguous layout (one allocation, cache-linear scans,
/// O(1) moves) is the hot-path representation. The interface mirrors the
/// std::map subset the protocol code uses; writes keep the vector sorted.
///
/// A slot owns no heap memory beyond its value strings: its w-tuple shares
/// the writer's sealed tsrarray block. The ring serves the steady state of
/// a garbage-collected history (append at the back, collect at the front,
/// forever):
///   - erasing a prefix advances `head_` -- O(erased), the retained suffix
///     never moves -- and drops the erased slots' payloads at once;
///   - an insert that finds the buffer full compacts the dead prefix away
///     instead of growing, in order or not (late acks and forged slots
///     land out of order),
///   so the buffer is bounded by the live slots and a bounded history
///   writes without allocating or copying retained slots.
class History {
 public:
  using value_type = std::pair<Ts, HistEntry>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  History() = default;
  History(std::initializer_list<value_type> init) {
    for (const auto& [ts, entry] : init) (*this)[ts] = entry;
  }
  /// Builds a history from a sorted slot range in one allocation (used to
  /// ship history suffixes, Section 5.1).
  History(const_iterator first, const_iterator last) : v_(first, last) {}

  // Value semantics see only the live slots: copies drop the dead prefix,
  // moves carry the whole buffer.
  History(const History& o) : v_(o.begin(), o.end()) {}
  History(History&&) noexcept = default;
  History& operator=(const History& o) {
    if (this != &o) {
      head_ = 0;
      v_.assign(o.begin(), o.end());
    }
    return *this;
  }
  History& operator=(History&&) noexcept = default;
  ~History() = default;

  [[nodiscard]] std::size_t size() const { return v_.size() - head_; }
  [[nodiscard]] bool empty() const { return v_.size() == head_; }
  void clear() {
    v_.clear();
    head_ = 0;
  }

  [[nodiscard]] iterator begin() { return v_.begin() + live_off(); }
  [[nodiscard]] iterator end() { return v_.end(); }
  [[nodiscard]] const_iterator begin() const { return v_.begin() + live_off(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }

  /// First slot with timestamp >= ts.
  [[nodiscard]] iterator lower_bound(Ts ts) {
    return std::lower_bound(begin(), end(), ts, KeyLess{});
  }
  [[nodiscard]] const_iterator lower_bound(Ts ts) const {
    return std::lower_bound(begin(), end(), ts, KeyLess{});
  }

  [[nodiscard]] iterator find(Ts ts) {
    auto it = lower_bound(ts);
    return (it != v_.end() && it->first == ts) ? it : v_.end();
  }
  [[nodiscard]] const_iterator find(Ts ts) const {
    auto it = lower_bound(ts);
    return (it != v_.end() && it->first == ts) ? it : v_.end();
  }
  [[nodiscard]] bool contains(Ts ts) const { return find(ts) != v_.end(); }

  /// Entry at slot `ts`, inserted (default-constructed) if absent.
  HistEntry& operator[](Ts ts) { return *upsert(ts).first; }

  [[nodiscard]] const HistEntry& at(Ts ts) const {
    auto it = find(ts);
    if (it == v_.end()) throw std::out_of_range("History::at: no such slot");
    return it->second;
  }

  /// Inserts <ts, entry> unless the slot already exists (std::map::emplace
  /// semantics); returns whether the insertion happened.
  bool emplace(Ts ts, HistEntry entry) {
    auto [e, created] = upsert(ts);
    if (created) *e = std::move(entry);
    return created;
  }

  /// Writer PW round: slot `ts` becomes <pw, nil>.
  void put_pw(Ts ts, const TsVal& pw) {
    HistEntry& e = *upsert(ts).first;
    e.pw = pw;
    e.w.reset();
  }

  /// Completed slot: `ts` becomes <pw, w>.
  void put_w(Ts ts, const TsVal& pw, const WTuple& w) {
    HistEntry& e = *upsert(ts).first;
    e.pw = pw;
    e.w = w;
  }

  /// Monotone slot-wise union, used by reader-side history mirrors: every
  /// slot of `delta` is copied in, but an engaged field is never replaced
  /// by nil. A slot's pw is immutable and its w only ever fills in under
  /// the (correct, SWMR) writer, so a regression can only come from a stale
  /// or replayed delta and must not punch holes into the mirror.
  void merge(const History& delta) {
    for (const auto& [ts, src] : delta) {
      HistEntry& e = *upsert(ts).first;
      if (src.pw) e.pw = src.pw;
      if (src.w) e.w = src.w;
    }
  }

  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }
  /// Removes [first, last). A prefix erase (the GC case) empties the slots
  /// and advances the head: O(erased), the retained suffix never moves.
  iterator erase(const_iterator first, const_iterator last) {
    if (first == last) return v_.begin() + (first - v_.cbegin());
    if (first == v_.cbegin() + live_off()) {
      auto f = v_.begin() + (first - v_.cbegin());
      auto l = v_.begin() + (last - v_.cbegin());
      for (auto it = f; it != l; ++it) it->second = HistEntry{};
      head_ = static_cast<std::size_t>(l - v_.begin());
      return l;
    }
    return v_.erase(first, last);
  }

  friend bool operator==(const History& a, const History& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& e, Ts ts) const { return e.first < ts; }
  };

  [[nodiscard]] std::ptrdiff_t live_off() const {
    return static_cast<std::ptrdiff_t>(head_);
  }

  /// Returns the slot for `ts`, creating an empty one if absent.
  std::pair<HistEntry*, bool> upsert(Ts ts) {
    if (empty() || ts > v_.back().first) {
      compact_if_full();
      return {&v_.emplace_back(ts, HistEntry{}).second, true};
    }
    auto it = lower_bound(ts);
    if (it != v_.end() && it->first == ts) return {&it->second, false};
    if (compact_if_full()) it = lower_bound(ts);
    it = v_.emplace(it, ts, HistEntry{});  // out of order: late or forged
    return {&it->second, true};
  }

  /// Out of room but holding a dead prefix: moves the live slots down
  /// (O(live), no allocation) so the insert that follows need not grow the
  /// buffer. Returns whether it moved anything.
  bool compact_if_full() {
    if (v_.size() < v_.capacity() || head_ == 0) return false;
    v_.erase(v_.begin(), v_.begin() + live_off());
    head_ = 0;
    return true;
  }

  std::vector<value_type> v_;  ///< slots; the live range is [head_, size())
  std::size_t head_ = 0;       ///< dead-prefix length (front-erased slots)
};

/// Object's reply in the *regular* storage: the history suffix from `since`
/// onwards (Section 5.1, extended to ack-driven deltas -- see HistReadMsg).
/// `resync` is set when garbage collection evicted slots the reader asked
/// for, i.e. the suffix starts *above* the requested floor: the reader must
/// drop its mirror of this object and rebuild from this reply instead of
/// silently treating the hole as denials.
struct HistReadAckMsg {
  std::uint8_t round{1};
  ReaderTs tsr{};
  History history{};
  Ts since{0};             ///< first slot the shipped suffix covers
  std::uint8_t resync{0};  ///< 1 = GC evicted past the requested floor
  friend bool operator==(const HistReadAckMsg&, const HistReadAckMsg&) = default;
};

// ---------------------------------------------------------------------------
// ABD crash-only baseline (src/baselines/abd.*)
// ---------------------------------------------------------------------------

/// Store a timestamp-value pair (used both by WRITE and by the read-phase
/// write-back). `seq` matches acks to the issuing phase.
struct AbdStoreMsg {
  std::uint64_t seq{};
  TsVal tsval{};
  friend bool operator==(const AbdStoreMsg&, const AbdStoreMsg&) = default;
};

struct AbdStoreAckMsg {
  std::uint64_t seq{};
  friend bool operator==(const AbdStoreAckMsg&, const AbdStoreAckMsg&) = default;
};

struct AbdQueryMsg {
  std::uint64_t seq{};
  friend bool operator==(const AbdQueryMsg&, const AbdQueryMsg&) = default;
};

struct AbdQueryAckMsg {
  std::uint64_t seq{};
  TsVal tsval{};
  friend bool operator==(const AbdQueryAckMsg&, const AbdQueryAckMsg&) = default;
};

// ---------------------------------------------------------------------------
// Byzantine baselines that do not write reader control data
// (polling reads, fast writes; src/baselines/polling.*, fastwrite.*)
// ---------------------------------------------------------------------------

/// Two-phase write used by the polling baseline (phase 1 = pre-write, phase 2
/// = write), after Abraham-Chockler-Keidar-Malkhi (PODC'04).
struct BlWriteMsg {
  std::uint8_t phase{1};
  Ts ts{};
  Value val{};
  friend bool operator==(const BlWriteMsg&, const BlWriteMsg&) = default;
};

struct BlWriteAckMsg {
  std::uint8_t phase{1};
  Ts ts{};
  friend bool operator==(const BlWriteAckMsg&, const BlWriteAckMsg&) = default;
};

/// One-round write used by the fast-write baseline (requires S >= 2t+2b+1).
struct FwWriteMsg {
  Ts ts{};
  Value val{};
  friend bool operator==(const FwWriteMsg&, const FwWriteMsg&) = default;
};

struct FwWriteAckMsg {
  Ts ts{};
  friend bool operator==(const FwWriteAckMsg&, const FwWriteAckMsg&) = default;
};

/// A state-preserving poll: the object replies with its current <pw, w>
/// pair and does not modify any state. `round` lets the reader attribute
/// replies to poll rounds.
struct PollMsg {
  std::uint64_t seq{};
  std::uint32_t round{};
  friend bool operator==(const PollMsg&, const PollMsg&) = default;
};

struct PollAckMsg {
  std::uint64_t seq{};
  std::uint32_t round{};
  TsVal pw{};
  TsVal w{};
  friend bool operator==(const PollAckMsg&, const PollAckMsg&) = default;
};

// ---------------------------------------------------------------------------
// Authenticated baseline (src/baselines/authenticated.*)
// ---------------------------------------------------------------------------

/// 32-byte HMAC-SHA256 over (ts, val) under the writer's key; simulates the
/// digital signatures of Malkhi-Reiter style protocols.
using Mac = std::string;

struct AuthWriteMsg {
  Ts ts{};
  Value val{};
  Mac mac{};
  friend bool operator==(const AuthWriteMsg&, const AuthWriteMsg&) = default;
};

struct AuthWriteAckMsg {
  Ts ts{};
  friend bool operator==(const AuthWriteAckMsg&, const AuthWriteAckMsg&) = default;
};

struct AuthReadMsg {
  std::uint64_t seq{};
  friend bool operator==(const AuthReadMsg&, const AuthReadMsg&) = default;
};

struct AuthReadAckMsg {
  std::uint64_t seq{};
  Ts ts{};
  Value val{};
  Mac mac{};
  friend bool operator==(const AuthReadAckMsg&, const AuthReadAckMsg&) = default;
};

// ---------------------------------------------------------------------------
// Server-centric model (Section 6; src/servercentric)
// ---------------------------------------------------------------------------

/// A reader's single request in the push model.
struct ScReadMsg {
  std::uint64_t seq{};
  friend bool operator==(const ScReadMsg&, const ScReadMsg&) = default;
};

/// An unsolicited server push carrying the server's current <pw, w> view;
/// servers may push repeatedly as their state evolves.
struct ScPushMsg {
  std::uint64_t seq{};
  std::uint32_t epoch{};
  TsVal pw{};
  TsVal w{};
  friend bool operator==(const ScPushMsg&, const ScPushMsg&) = default;
};

/// Server-to-server gossip of writer data in the push model.
struct ScGossipMsg {
  Ts ts{};
  TsVal pw{};
  TsVal w{};
  friend bool operator==(const ScGossipMsg&, const ScGossipMsg&) = default;
};

// ---------------------------------------------------------------------------

/// Reader round k in {1,2} of the *regular* storage. Replaces ReadMsg for
/// regular reads (ReadMsg stays the safe-storage request, byte-identical to
/// before): on top of the Section 5.1 `cache_ts`, the reader reports `have`,
/// the top slot of the history mirror it has already merged from this
/// object. The object ships only slots >= max(have, cache_ts) -- inclusive,
/// because the top slot can still mutate (its w fills in) while everything
/// below the object's write timestamp is frozen -- and treats that floor as
/// the reader's acked watermark for prefix garbage collection. A lost reply
/// self-heals: the reader's `have` stays low, so the next round re-ships.
struct HistReadMsg {
  std::uint8_t round{1};
  ReaderTs tsr{};
  Ts cache_ts{0};  ///< Section 5.1 cached timestamp (0 = no cache)
  Ts have{0};      ///< top history slot already merged from this object
  friend bool operator==(const HistReadMsg&, const HistReadMsg&) = default;
};

// ---------------------------------------------------------------------------

struct ShardMsg;  // the envelope holds a Message, so it is defined below

// New alternatives go at the END: the codec tag and the NetStats per-type
// indices are the variant index, so appending preserves every existing
// wire byte and accounting slot.
using Message = std::variant<
    PwMsg, PwAckMsg, WMsg, WAckMsg, ReadMsg, ReadAckMsg, HistReadAckMsg,
    AbdStoreMsg, AbdStoreAckMsg, AbdQueryMsg, AbdQueryAckMsg,
    BlWriteMsg, BlWriteAckMsg, FwWriteMsg, FwWriteAckMsg, PollMsg, PollAckMsg,
    AuthWriteMsg, AuthWriteAckMsg, AuthReadMsg, AuthReadAckMsg,
    ScReadMsg, ScPushMsg, ScGossipMsg, ShardMsg, HistReadMsg>;

// ---------------------------------------------------------------------------
// Multi-register sharding (src/harness/shard.*)
// ---------------------------------------------------------------------------

/// Shard envelope: tags a protocol message with the register instance it
/// belongs to. Sharded deployments run K independent SWMR emulations over
/// the same base-object processes; every message between a shard's clients
/// and the objects travels wrapped in a ShardMsg, and the object host
/// demultiplexes on `reg`.
///
/// The envelope holds the typed inner message, immutable and shared by
/// every copy of the envelope (a duplicated or held message costs a
/// reference count, not a deep copy), so an in-memory backend hands the
/// automaton the very message its peer sent. Bytes exist only where they
/// are needed -- the net backend's frames, the reserialize round trip and
/// encoded_size() byte accounting -- and there the codec writes the inner
/// message inline as a length-prefixed nested encoding, so the envelope is
/// still a real wire format. The decoder rejects an envelope nested in an
/// envelope.
struct ShardMsg {
  ShardMsg() = default;  ///< empty envelope (`inner` is null); decode fills it
  /// Moves `msg` into a fresh shared payload for register `r`.
  ShardMsg(RegisterId r, Message msg);

  RegisterId reg{0};
  std::shared_ptr<const Message> inner{};

  /// Envelopes compare by register and inner message, not by payload
  /// identity.
  friend bool operator==(const ShardMsg& a, const ShardMsg& b);
};

inline ShardMsg::ShardMsg(RegisterId r, Message msg)
    : reg(r), inner(std::make_shared<const Message>(std::move(msg))) {}

inline bool operator==(const ShardMsg& a, const ShardMsg& b) {
  if (a.reg != b.reg) return false;
  if (a.inner == nullptr || b.inner == nullptr) return a.inner == b.inner;
  return *a.inner == *b.inner;
}

/// Compile-time variant index of a Message alternative. The canonical way
/// to index NetStats::messages_by_type / bytes_by_type: codec tags equal
/// variant indices, so a hardcoded integer would silently misattribute
/// bytes after a variant reorder.
template <class T, std::size_t I = 0>
[[nodiscard]] constexpr std::size_t message_index() {
  static_assert(I < std::variant_size_v<Message>,
                "T is not a Message alternative");
  if constexpr (std::is_same_v<std::variant_alternative_t<I, Message>, T>) {
    return I;
  } else {
    return message_index<T, I + 1>();
  }
}

/// Human-readable tag, for traces and test failure messages.
[[nodiscard]] const char* type_name(const Message& m);

}  // namespace rr::wire
