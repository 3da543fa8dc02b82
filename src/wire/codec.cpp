#include "wire/codec.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace rr::wire {
namespace {

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

template <class W>
void put_message(W& w, const Message& m);

/// Stores `v` little-endian at `p`.
template <class T>
void store_le(char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}

/// Materializing writer. encode() reserves the exact encoded_size() up
/// front, and fixed-width fields are appended whole, so a message is
/// written without reallocation and without per-byte appends.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t size) { out_.reserve(size); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }

  void bytes(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  /// A length-prefixed nested message: the length is backpatched once the
  /// inner encoding is written.
  void nested(const Message& m) {
    const std::size_t at = out_.size();
    u32(0);
    put_message(*this, m);
    store_le(out_.data() + at,
             static_cast<std::uint32_t>(out_.size() - at - 4));
  }

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  template <class T>
  void fixed(T v) {
    char buf[sizeof(T)];
    store_le(buf, v);
    out_.append(buf, sizeof(T));
  }

  std::string out_;
};

/// Drop-in ByteWriter replacement that only counts: encoded_size() runs the
/// exact same put_body() code as encode() but never materializes bytes, so
/// per-message byte accounting in the simulator hot loop is allocation-free.
class SizeWriter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void bytes(const std::string& s) { n_ += 4 + s.size(); }
  void nested(const Message& m) {
    n_ += 4;
    put_message(*this, m);
  }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked reader over a borrowed byte view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > in_.size()) return fail();
    v = static_cast<std::uint8_t>(in_[pos_++]);
    return true;
  }

  bool u32(std::uint32_t& v) { return fixed(v); }
  bool u64(std::uint64_t& v) { return fixed(v); }

  /// A u32 length prefix and that many bytes, borrowed from the input.
  bool view(std::string_view& s) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (pos_ + n > in_.size()) return fail();
    s = in_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool bytes(std::string& s) {
    std::string_view v;
    if (!view(v)) return false;
    s.assign(v);
    return true;
  }

  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == in_.size(); }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

 private:
  template <class T>
  bool fixed(T& v) {
    if (pos_ + sizeof(T) > in_.size()) return fail();
    v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(in_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return true;
  }

  bool fail() {
    ok_ = false;
    return false;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Containers are length-prefixed; cap element counts so a malicious 4-byte
// prefix cannot trigger a huge allocation before the truncation check fires.
constexpr std::uint32_t kMaxElems = 1u << 20;

// ---------------------------------------------------------------------------
// Composite encoders / decoders
// ---------------------------------------------------------------------------

template <class W>
void put(W& w, const TsVal& v) {
  w.u64(v.ts);
  w.bytes(v.val);
}

bool get(ByteReader& r, TsVal& v) { return r.u64(v.ts) && r.bytes(v.val); }

template <class W>
void put(W& w, std::span<const ReaderTs> row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  for (auto x : row) w.u64(x);
}

bool get(ByteReader& r, TsrRow& row) {
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxElems) return false;
  row.clear();
  row.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t x = 0;
    if (!r.u64(x)) return false;
    row.push_back(x);
  }
  return true;
}

template <class W>
void put(W& w, const TsrArray& arr) {
  w.u32(static_cast<std::uint32_t>(arr.size()));
  for (std::size_t i = 0; i < arr.size(); ++i) {
    w.u8(arr.has_row(i) ? 1 : 0);
    if (arr.has_row(i)) put(w, arr.row(i));
  }
}

/// Decodes straight into one sealed block. The builder is per thread and
/// keeps its capacity, so a decoded tuple costs one allocation; every
/// count is checked against the bytes left before anything is sized.
bool get(ByteReader& r, TsrArray& arr) {
  thread_local TsrArray::Builder b;
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxElems || n > r.remaining()) return false;
  b.reset(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t flag = 0;
    if (!r.u8(flag) || flag > 1) return false;
    if (flag == 0) continue;
    std::uint32_t len = 0;
    if (!r.u32(len) || len > kMaxElems || len > r.remaining() / 8) {
      return false;
    }
    for (auto& x : b.set(i, len)) {
      if (!r.u64(x)) return false;
    }
  }
  arr = b.seal();
  return true;
}

template <class W>
void put(W& w, const WTuple& t) {
  put(w, t.tsval);
  put(w, t.tsrarray);
}

bool get(ByteReader& r, WTuple& t) {
  return get(r, t.tsval) && get(r, t.tsrarray);
}

template <class W>
void put(W& w, const HistEntry& e) {
  w.u8(e.pw.has_value() ? 1 : 0);
  if (e.pw) put(w, *e.pw);
  w.u8(e.w.has_value() ? 1 : 0);
  if (e.w) put(w, *e.w);
}

bool get(ByteReader& r, HistEntry& e) {
  std::uint8_t flag = 0;
  if (!r.u8(flag) || flag > 1) return false;
  if (flag) {
    TsVal v;
    if (!get(r, v)) return false;
    e.pw = std::move(v);
  } else {
    e.pw.reset();
  }
  if (!r.u8(flag) || flag > 1) return false;
  if (flag) {
    WTuple t;
    if (!get(r, t)) return false;
    e.w = std::move(t);
  } else {
    e.w.reset();
  }
  return true;
}

template <class W>
void put(W& w, const History& h) {
  w.u32(static_cast<std::uint32_t>(h.size()));
  for (const auto& [ts, entry] : h) {
    w.u64(ts);
    put(w, entry);
  }
}

bool get(ByteReader& r, History& h) {
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxElems) return false;
  h.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    Ts ts = 0;
    HistEntry entry;
    if (!r.u64(ts) || !get(r, entry)) return false;
    h.emplace(ts, std::move(entry));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-message bodies
// ---------------------------------------------------------------------------

template <class W>
void put_body(W& w, const PwMsg& m) {
  w.u64(m.ts);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, PwMsg& m) {
  return r.u64(m.ts) && get(r, m.pw) && get(r, m.w);
}

template <class W>
void put_body(W& w, const PwAckMsg& m) {
  w.u64(m.ts);
  put(w, m.tsr);
}
bool get_body(ByteReader& r, PwAckMsg& m) {
  return r.u64(m.ts) && get(r, m.tsr);
}

template <class W>
void put_body(W& w, const WMsg& m) {
  w.u64(m.ts);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, WMsg& m) {
  return r.u64(m.ts) && get(r, m.pw) && get(r, m.w);
}

template <class W>
void put_body(W& w, const WAckMsg& m) { w.u64(m.ts); }
bool get_body(ByteReader& r, WAckMsg& m) { return r.u64(m.ts); }

template <class W>
void put_body(W& w, const ReadMsg& m) {
  w.u8(m.round);
  w.u64(m.tsr);
  w.u64(m.cache_ts);
}
bool get_body(ByteReader& r, ReadMsg& m) {
  return r.u8(m.round) && r.u64(m.tsr) && r.u64(m.cache_ts);
}

template <class W>
void put_body(W& w, const ReadAckMsg& m) {
  w.u8(m.round);
  w.u64(m.tsr);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, ReadAckMsg& m) {
  return r.u8(m.round) && r.u64(m.tsr) && get(r, m.pw) && get(r, m.w);
}

template <class W>
void put_body(W& w, const HistReadAckMsg& m) {
  w.u8(m.round);
  w.u64(m.tsr);
  put(w, m.history);
  w.u64(m.since);
  w.u8(m.resync);
}
bool get_body(ByteReader& r, HistReadAckMsg& m) {
  return r.u8(m.round) && r.u64(m.tsr) && get(r, m.history) &&
         r.u64(m.since) && r.u8(m.resync);
}

template <class W>
void put_body(W& w, const HistReadMsg& m) {
  w.u8(m.round);
  w.u64(m.tsr);
  w.u64(m.cache_ts);
  w.u64(m.have);
}
bool get_body(ByteReader& r, HistReadMsg& m) {
  return r.u8(m.round) && r.u64(m.tsr) && r.u64(m.cache_ts) && r.u64(m.have);
}

template <class W>
void put_body(W& w, const AbdStoreMsg& m) {
  w.u64(m.seq);
  put(w, m.tsval);
}
bool get_body(ByteReader& r, AbdStoreMsg& m) {
  return r.u64(m.seq) && get(r, m.tsval);
}

template <class W>
void put_body(W& w, const AbdStoreAckMsg& m) { w.u64(m.seq); }
bool get_body(ByteReader& r, AbdStoreAckMsg& m) { return r.u64(m.seq); }

template <class W>
void put_body(W& w, const AbdQueryMsg& m) { w.u64(m.seq); }
bool get_body(ByteReader& r, AbdQueryMsg& m) { return r.u64(m.seq); }

template <class W>
void put_body(W& w, const AbdQueryAckMsg& m) {
  w.u64(m.seq);
  put(w, m.tsval);
}
bool get_body(ByteReader& r, AbdQueryAckMsg& m) {
  return r.u64(m.seq) && get(r, m.tsval);
}

template <class W>
void put_body(W& w, const BlWriteMsg& m) {
  w.u8(m.phase);
  w.u64(m.ts);
  w.bytes(m.val);
}
bool get_body(ByteReader& r, BlWriteMsg& m) {
  return r.u8(m.phase) && r.u64(m.ts) && r.bytes(m.val);
}

template <class W>
void put_body(W& w, const BlWriteAckMsg& m) {
  w.u8(m.phase);
  w.u64(m.ts);
}
bool get_body(ByteReader& r, BlWriteAckMsg& m) {
  return r.u8(m.phase) && r.u64(m.ts);
}

template <class W>
void put_body(W& w, const FwWriteMsg& m) {
  w.u64(m.ts);
  w.bytes(m.val);
}
bool get_body(ByteReader& r, FwWriteMsg& m) {
  return r.u64(m.ts) && r.bytes(m.val);
}

template <class W>
void put_body(W& w, const FwWriteAckMsg& m) { w.u64(m.ts); }
bool get_body(ByteReader& r, FwWriteAckMsg& m) { return r.u64(m.ts); }

template <class W>
void put_body(W& w, const PollMsg& m) {
  w.u64(m.seq);
  w.u32(m.round);
}
bool get_body(ByteReader& r, PollMsg& m) {
  return r.u64(m.seq) && r.u32(m.round);
}

template <class W>
void put_body(W& w, const PollAckMsg& m) {
  w.u64(m.seq);
  w.u32(m.round);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, PollAckMsg& m) {
  return r.u64(m.seq) && r.u32(m.round) && get(r, m.pw) && get(r, m.w);
}

template <class W>
void put_body(W& w, const AuthWriteMsg& m) {
  w.u64(m.ts);
  w.bytes(m.val);
  w.bytes(m.mac);
}
bool get_body(ByteReader& r, AuthWriteMsg& m) {
  return r.u64(m.ts) && r.bytes(m.val) && r.bytes(m.mac);
}

template <class W>
void put_body(W& w, const AuthWriteAckMsg& m) { w.u64(m.ts); }
bool get_body(ByteReader& r, AuthWriteAckMsg& m) { return r.u64(m.ts); }

template <class W>
void put_body(W& w, const AuthReadMsg& m) { w.u64(m.seq); }
bool get_body(ByteReader& r, AuthReadMsg& m) { return r.u64(m.seq); }

template <class W>
void put_body(W& w, const AuthReadAckMsg& m) {
  w.u64(m.seq);
  w.u64(m.ts);
  w.bytes(m.val);
  w.bytes(m.mac);
}
bool get_body(ByteReader& r, AuthReadAckMsg& m) {
  return r.u64(m.seq) && r.u64(m.ts) && r.bytes(m.val) && r.bytes(m.mac);
}

template <class W>
void put_body(W& w, const ScReadMsg& m) { w.u64(m.seq); }
bool get_body(ByteReader& r, ScReadMsg& m) { return r.u64(m.seq); }

template <class W>
void put_body(W& w, const ScPushMsg& m) {
  w.u64(m.seq);
  w.u32(m.epoch);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, ScPushMsg& m) {
  return r.u64(m.seq) && r.u32(m.epoch) && get(r, m.pw) && get(r, m.w);
}

template <class W>
void put_body(W& w, const ScGossipMsg& m) {
  w.u64(m.ts);
  put(w, m.pw);
  put(w, m.w);
}
bool get_body(ByteReader& r, ScGossipMsg& m) {
  return r.u64(m.ts) && get(r, m.pw) && get(r, m.w);
}

// The inner message is written inline as a length-prefixed nested
// encoding: the same bytes as a u32-prefixed string holding encode(inner).
template <class W>
void put_body(W& w, const ShardMsg& m) {
  w.u32(m.reg);
  w.nested(*m.inner);
}
bool get_body(ByteReader& r, ShardMsg& m) {
  std::string_view bytes;
  if (!r.u32(m.reg) || !r.view(bytes)) return false;
  // An envelope never nests another: rejecting that up front bounds the
  // decoder's recursion on hostile input to one level.
  if (!bytes.empty() &&
      static_cast<std::uint8_t>(bytes.front()) == message_index<ShardMsg>()) {
    return false;
  }
  auto inner = decode(bytes);
  if (!inner) return false;
  m.inner = std::make_shared<const Message>(std::move(*inner));
  return true;
}

// ---------------------------------------------------------------------------
// Variant dispatch
// ---------------------------------------------------------------------------

template <std::size_t I = 0>
std::optional<Message> decode_alternative(std::uint8_t tag, ByteReader& r) {
  if constexpr (I >= std::variant_size_v<Message>) {
    (void)tag;
    (void)r;
    return std::nullopt;
  } else {
    if (tag == I) {
      std::variant_alternative_t<I, Message> body;
      if (!get_body(r, body) || !r.exhausted()) return std::nullopt;
      return Message(std::in_place_index<I>, std::move(body));
    }
    return decode_alternative<I + 1>(tag, r);
  }
}

template <class W>
void put_message(W& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.index()));
  std::visit([&](const auto& body) { put_body(w, body); }, m);
}

}  // namespace

std::string encode(const Message& m) {
  ByteWriter w(encoded_size(m));
  put_message(w, m);
  return std::move(w).take();
}

std::optional<Message> decode(std::string_view bytes) {
  ByteReader r(bytes);
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return std::nullopt;
  return decode_alternative(tag, r);
}

std::size_t encoded_size(const Message& m) {
  SizeWriter w;
  put_message(w, m);
  return w.size();
}

const char* type_name(const Message& m) {
  static constexpr const char* kNames[] = {
      "PW",        "PW_ACK",      "W",         "WRITE_ACK", "READ",
      "READ_ACK",  "HIST_ACK",    "ABD_STORE", "ABD_STORE_ACK",
      "ABD_QUERY", "ABD_QUERY_ACK",
      "BL_WRITE",  "BL_WRITE_ACK", "FW_WRITE", "FW_WRITE_ACK",
      "POLL",      "POLL_ACK",
      "AUTH_WRITE", "AUTH_WRITE_ACK", "AUTH_READ", "AUTH_READ_ACK",
      "SC_READ",   "SC_PUSH",     "SC_GOSSIP",  "SHARD",     "HIST_READ"};
  static_assert(std::variant_size_v<Message> ==
                sizeof(kNames) / sizeof(kNames[0]));
  return kNames[m.index()];
}

}  // namespace rr::wire
