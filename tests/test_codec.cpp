// Codec tests: round-trip of every message type, malformed-input rejection,
// and a deterministic fuzz sweep (the codec faces bytes from Byzantine
// processes, so it must never crash or over-allocate).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/codec.hpp"

namespace rr::wire {
namespace {

WTuple sample_tuple() {
  WTuple t;
  t.tsval = TsVal{42, "payload"};
  TsrRows rows(4);
  rows[1] = TsrRow{1, 2, 3};
  rows[3] = TsrRow{};
  t.tsrarray = TsrArray(rows);
  return t;
}

History sample_history() {
  History h;
  h[0] = HistEntry{TsVal::bottom(), initial_wtuple(4)};
  h[7] = HistEntry{TsVal{7, "v7"}, std::nullopt};
  h[9] = HistEntry{std::nullopt, sample_tuple()};
  return h;
}

std::vector<Message> all_message_samples() {
  return {
      PwMsg{3, TsVal{3, "v3"}, sample_tuple()},
      PwAckMsg{3, TsrRow{9, 8}},
      WMsg{3, TsVal{3, "v3"}, sample_tuple()},
      WAckMsg{3},
      ReadMsg{2, 77, 5},
      ReadAckMsg{1, 77, TsVal{4, "x"}, sample_tuple()},
      HistReadAckMsg{2, 78, sample_history()},
      AbdStoreMsg{11, TsVal{2, "ab"}},
      AbdStoreAckMsg{11},
      AbdQueryMsg{12},
      AbdQueryAckMsg{12, TsVal{5, "q"}},
      BlWriteMsg{1, 6, "bl"},
      BlWriteAckMsg{2, 6},
      FwWriteMsg{7, "fw"},
      FwWriteAckMsg{7},
      PollMsg{13, 4},
      PollAckMsg{13, 4, TsVal{1, "p"}, TsVal{1, "p"}},
      AuthWriteMsg{8, "av", std::string(32, '\x01')},
      AuthWriteAckMsg{8},
      AuthReadMsg{14},
      AuthReadAckMsg{14, 8, "av", std::string(32, '\x01')},
      ScReadMsg{15},
      ScPushMsg{15, 3, TsVal{2, "s"}, TsVal{2, "s"}},
      ScGossipMsg{9, TsVal{9, "g"}, TsVal{8, "g8"}},
      ShardMsg{3, WAckMsg{5}},
      HistReadMsg{1, 79, 5, 8},
  };
}

// The registry-derived index helper must agree with the variant layout the
// codec tags are built from (benches key JSON per-type stats off it).
static_assert(message_index<PwMsg>() == 0);
static_assert(message_index<HistReadAckMsg>() == 6);
static_assert(message_index<HistReadMsg>() == std::variant_size_v<Message> - 1);

TEST(CodecTest, RoundTripsEveryMessageType) {
  const auto samples = all_message_samples();
  ASSERT_EQ(samples.size(), std::variant_size_v<Message>);
  for (const auto& msg : samples) {
    const std::string bytes = encode(msg);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << type_name(msg);
    EXPECT_EQ(*decoded, msg) << type_name(msg);
    EXPECT_EQ(encoded_size(msg), bytes.size());
  }
}

TEST(CodecTest, EncodingIsDeterministic) {
  for (const auto& msg : all_message_samples()) {
    EXPECT_EQ(encode(msg), encode(msg)) << type_name(msg);
  }
}

TEST(CodecTest, DistinctMessagesEncodeDistinctly) {
  const auto samples = all_message_samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t k = i + 1; k < samples.size(); ++k) {
      EXPECT_NE(encode(samples[i]), encode(samples[k]));
    }
  }
}

TEST(CodecTest, ShardEnvelopeCopiesSharePayload) {
  const ShardMsg a{1, ReadMsg{1, 7, 0}};
  const ShardMsg b = a;
  EXPECT_EQ(a.inner, b.inner) << "a copy must share, not deep-copy";
  EXPECT_EQ(a, b);
  EXPECT_NE(a, (ShardMsg{2, ReadMsg{1, 7, 0}}));
  EXPECT_NE(a, (ShardMsg{1, ReadMsg{2, 7, 0}}));
  EXPECT_NE(a, ShardMsg{});
}

TEST(CodecTest, ShardEnvelopeWithUndecodableInnerRejected) {
  std::string bytes = encode(Message{ShardMsg{3, WAckMsg{5}}});
  constexpr std::size_t kInnerTag = 1 + 4 + 4;  // tag, register, length
  bytes[kInnerTag] = '\xff';                    // no such message type
  EXPECT_FALSE(decode(bytes).has_value());
  // An inner message one byte short, with the envelope's length prefix
  // adjusted to match: the framing is consistent, the inner is not.
  std::string truncated = encode(Message{ShardMsg{3, WAckMsg{5}}});
  truncated.pop_back();
  truncated[5] = '\x08';
  EXPECT_FALSE(decode(truncated).has_value());
  // An empty inner message.
  EXPECT_FALSE(decode(std::string("\x18\x03\x00\x00\x00\x00\x00\x00\x00",
                                  9))
                   .has_value());
}

TEST(CodecTest, EmptyInputRejected) {
  EXPECT_FALSE(decode("").has_value());
}

TEST(CodecTest, UnknownTagRejected) {
  std::string bytes(1, static_cast<char>(std::variant_size_v<Message>));
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecTest, TruncationRejected) {
  for (const auto& msg : all_message_samples()) {
    const std::string bytes = encode(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(decode(bytes.substr(0, cut)).has_value())
          << type_name(msg) << " truncated to " << cut;
    }
  }
}

TEST(CodecTest, TrailingGarbageRejected) {
  for (const auto& msg : all_message_samples()) {
    EXPECT_FALSE(decode(encode(msg) + "x").has_value()) << type_name(msg);
  }
}

TEST(CodecTest, HugeLengthPrefixRejectedWithoutAllocation) {
  // A PwAckMsg whose tsr row claims 2^32-1 elements: must fail cleanly.
  std::string bytes;
  bytes.push_back(1);  // PwAckMsg tag
  for (int i = 0; i < 8; ++i) bytes.push_back(0);  // ts
  bytes += std::string(4, '\xff');                 // row length prefix
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecTest, FuzzRandomBytesNeverCrash) {
  Rng rng(2024);
  int decoded_ok = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string bytes;
    const auto len = rng.uniform(0, 64);
    bytes.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    if (decode(bytes).has_value()) ++decoded_ok;
  }
  // Some random inputs may parse (tiny fixed-size messages); most must not.
  EXPECT_LT(decoded_ok, 2000);
}

TEST(CodecTest, FuzzBitFlipsOnValidMessages) {
  Rng rng(77);
  for (const auto& msg : all_message_samples()) {
    const std::string bytes = encode(msg);
    for (int iter = 0; iter < 200; ++iter) {
      std::string mutated = bytes;
      const auto pos = rng.index(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          (1u << rng.uniform(0, 7)));
      // Must not crash; may or may not decode.
      const auto result = decode(mutated);
      if (result.has_value()) {
        // If it decodes, re-encoding must be canonical.
        EXPECT_EQ(encode(*result).size(), mutated.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// encoded_size property test: the counting visitor must agree with the
// materializing encoder on every one of the 26 message variants, across
// randomized payloads (empty/huge strings, nil/full tsrarrays, histories).
// ---------------------------------------------------------------------------

Value random_value(Rng& rng) {
  const auto len = rng.index(40);
  Value v;
  v.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<char>(rng.uniform(0, 255)));
  }
  return v;
}

TsVal random_tsval(Rng& rng) {
  return TsVal{rng.uniform(0, 1u << 20), random_value(rng)};
}

TsrRow random_tsr_row(Rng& rng) {
  TsrRow row(rng.index(6));
  for (auto& x : row) x = rng.uniform(0, 1000);
  return row;
}

TsrRows random_tsr_rows(Rng& rng) {
  TsrRows rows(rng.index(5));
  for (auto& e : rows) {
    if (rng.chance(0.5)) e = random_tsr_row(rng);
  }
  return rows;
}

WTuple random_wtuple(Rng& rng) {
  return WTuple{random_tsval(rng), TsrArray(random_tsr_rows(rng))};
}

History random_history(Rng& rng) {
  History h;
  const auto slots = rng.index(8);
  for (std::size_t i = 0; i < slots; ++i) {
    HistEntry e;
    if (rng.chance(0.7)) e.pw = random_tsval(rng);
    if (rng.chance(0.7)) e.w = random_wtuple(rng);
    h[rng.uniform(0, 50)] = std::move(e);
  }
  return h;
}

Message random_message(std::size_t variant, Rng& rng) {
  const auto u8v = [&] { return static_cast<std::uint8_t>(rng.uniform(0, 255)); };
  const auto u32v = [&] { return static_cast<std::uint32_t>(rng.uniform(0, 1u << 30)); };
  const auto u64v = [&] { return rng.uniform(0, 1ull << 40); };
  switch (variant) {
    case 0: return PwMsg{u64v(), random_tsval(rng), random_wtuple(rng)};
    case 1: return PwAckMsg{u64v(), random_tsr_row(rng)};
    case 2: return WMsg{u64v(), random_tsval(rng), random_wtuple(rng)};
    case 3: return WAckMsg{u64v()};
    case 4: return ReadMsg{u8v(), u64v(), u64v()};
    case 5: return ReadAckMsg{u8v(), u64v(), random_tsval(rng), random_wtuple(rng)};
    case 6:
      return HistReadAckMsg{u8v(), u64v(), random_history(rng), u64v(), u8v()};
    case 7: return AbdStoreMsg{u64v(), random_tsval(rng)};
    case 8: return AbdStoreAckMsg{u64v()};
    case 9: return AbdQueryMsg{u64v()};
    case 10: return AbdQueryAckMsg{u64v(), random_tsval(rng)};
    case 11: return BlWriteMsg{u8v(), u64v(), random_value(rng)};
    case 12: return BlWriteAckMsg{u8v(), u64v()};
    case 13: return FwWriteMsg{u64v(), random_value(rng)};
    case 14: return FwWriteAckMsg{u64v()};
    case 15: return PollMsg{u64v(), u32v()};
    case 16: return PollAckMsg{u64v(), u32v(), random_tsval(rng), random_tsval(rng)};
    case 17: return AuthWriteMsg{u64v(), random_value(rng), random_value(rng)};
    case 18: return AuthWriteAckMsg{u64v()};
    case 19: return AuthReadMsg{u64v()};
    case 20: return AuthReadAckMsg{u64v(), u64v(), random_value(rng), random_value(rng)};
    case 21: return ScReadMsg{u64v()};
    case 22: return ScPushMsg{u64v(), u32v(), random_tsval(rng), random_tsval(rng)};
    case 23: return ScGossipMsg{u64v(), random_tsval(rng), random_tsval(rng)};
    case 24: {
      // A random non-envelope inner message (decode rejects nesting).
      auto inner = rng.index(std::variant_size_v<Message> - 1);
      if (inner >= message_index<ShardMsg>()) ++inner;
      return ShardMsg{u32v(), random_message(inner, rng)};
    }
    case 25: return HistReadMsg{u8v(), u64v(), u64v(), u64v()};
    default: break;
  }
  return WAckMsg{0};
}

TEST(CodecTest, EncodedSizePropertyAllVariants) {
  static_assert(std::variant_size_v<Message> == 26);
  Rng rng(424242);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 50; ++iter) {
      const Message msg = random_message(variant, rng);
      ASSERT_EQ(msg.index(), variant);
      const std::string bytes = encode(msg);
      EXPECT_EQ(encoded_size(msg), bytes.size())
          << type_name(msg) << " iter " << iter;
      // The counting visitor must not drift from the decoder either.
      const auto decoded = decode(bytes);
      ASSERT_TRUE(decoded.has_value()) << type_name(msg);
      EXPECT_EQ(*decoded, msg) << type_name(msg);
    }
  }
}

TEST(CodecTest, NestedEnvelopesEncodeButDecodeRejectsThem) {
  // The encoder, and the counting visitor with it, follows any nesting
  // depth; the decoder refuses an envelope inside an envelope at the first
  // level, which bounds its recursion on hostile input.
  Rng rng(5150);
  for (int iter = 0; iter < 200; ++iter) {
    Message msg = random_message(rng.index(std::variant_size_v<Message>), rng);
    const auto depth = 2 + rng.index(3);
    for (std::size_t d = 0; d < depth; ++d) {
      msg = ShardMsg{static_cast<RegisterId>(rng.uniform(0, 9)), std::move(msg)};
    }
    const std::string bytes = encode(msg);
    EXPECT_EQ(encoded_size(msg), bytes.size()) << "iter " << iter;
    EXPECT_FALSE(decode(bytes).has_value()) << "iter " << iter;
  }
  Message deep = WAckMsg{1};
  for (int i = 0; i < 1000; ++i) deep = ShardMsg{0, std::move(deep)};
  EXPECT_FALSE(decode(encode(deep)).has_value());
}

TEST(CodecTest, EncodedSizeOfDegenerateShapes) {
  // Empty history, empty strings, all-nil tsrarray, and a large history.
  History empty;
  EXPECT_EQ(encoded_size(Message{HistReadAckMsg{1, 0, empty}}),
            encode(Message{HistReadAckMsg{1, 0, empty}}).size());
  History big;
  for (Ts k = 0; k < 200; ++k) {
    big[k] = HistEntry{TsVal{k, std::string(100, 'x')},
                       WTuple{TsVal{k, ""}, init_tsrarray(8)}};
  }
  const Message m = HistReadAckMsg{2, 9, big};
  EXPECT_EQ(encoded_size(m), encode(m).size());
  const Message auth = AuthWriteMsg{1, "", ""};
  EXPECT_EQ(encoded_size(auth), encode(auth).size());
}

// ---------------------------------------------------------------------------
// Tuple equality property: tuples share sealed tsrarray blocks and compare
// by pointer, then hash, then contents. Over random pairs from the
// generator above -- ragged, empty and nil rows included -- two tuples are
// equal exactly when their encodings are, and equal tuples hash alike.
// Pairs are drawn so that about half are equal: shared copies, re-sealed
// copies of the same rows, and one-edit mutations of either part.
// ---------------------------------------------------------------------------

std::string encode_tuple(const WTuple& t) {
  return encode(Message{ReadAckMsg{1, 0, TsVal{}, t}});
}

/// `rows` with one small edit: a row toggled nil, an entry changed, an
/// entry appended, or a row added or dropped.
TsrRows mutate(TsrRows rows, Rng& rng) {
  const std::size_t i = rows.empty() ? 0 : rng.index(rows.size());
  switch (rng.index(4)) {
    case 0:
      if (!rows.empty()) {
        rows[i] = rows[i] ? std::nullopt : std::optional<TsrRow>(TsrRow{});
        return rows;
      }
      break;
    case 1:
      if (!rows.empty() && rows[i] && !rows[i]->empty()) {
        ++(*rows[i])[rng.index(rows[i]->size())];
        return rows;
      }
      break;
    case 2:
      if (!rows.empty() && rows[i]) {
        rows[i]->push_back(rng.uniform(0, 1000));
        return rows;
      }
      break;
    default:
      break;
  }
  if (!rows.empty() && rng.chance(0.5)) {
    rows.pop_back();
  } else {
    rows.emplace_back(std::nullopt);
  }
  return rows;
}

TEST(CodecTest, TupleEqualityMatchesEncodedBytes) {
  Rng rng(2006);
  int equal = 0;
  constexpr int kPairs = 12'000;
  for (int iter = 0; iter < kPairs; ++iter) {
    const TsVal tsval = random_tsval(rng);
    const TsrRows rows = random_tsr_rows(rng);
    const WTuple a{tsval, TsrArray(rows)};
    WTuple b;
    switch (rng.index(5)) {
      case 0:
        b = a;  // shares a's block
        break;
      case 1:
        b = WTuple{tsval, TsrArray(rows)};  // same rows, its own block
        break;
      case 2:
        b = WTuple{tsval, TsrArray(mutate(rows, rng))};
        break;
      case 3:
        b = WTuple{TsVal{tsval.ts + rng.index(2), random_value(rng)},
                   a.tsrarray};
        break;
      default:
        b = random_wtuple(rng);
        break;
    }
    const bool same_bytes = encode_tuple(a) == encode_tuple(b);
    ASSERT_EQ(a == b, same_bytes) << "iter " << iter;
    ASSERT_EQ(b == a, same_bytes) << "iter " << iter;
    if (a == b) {
      ++equal;
      ASSERT_EQ(a.tsrarray.hash(), b.tsrarray.hash()) << "iter " << iter;
    }
    // A decoded copy is a fresh block with the same contents.
    const auto back = decode(encode_tuple(b));
    ASSERT_TRUE(back.has_value()) << "iter " << iter;
    const WTuple& c = std::get<ReadAckMsg>(*back).w;
    ASSERT_EQ(c, b) << "iter " << iter;
    ASSERT_EQ(c.tsrarray.hash(), b.tsrarray.hash()) << "iter " << iter;
    ASSERT_EQ(c.tsrarray.rows(), b.tsrarray.rows()) << "iter " << iter;
  }
  EXPECT_GT(equal, kPairs / 4);
  EXPECT_LT(equal, 3 * kPairs / 4);
}

// ---------------------------------------------------------------------------
// Adversarial-bytes torture, every variant: the codec faces frames from
// Byzantine peers via the net backend's framing layer, so each of the 26
// variants is attacked with randomized payloads x truncation, bit flips,
// and hostile length prefixes. Nothing here may crash, over-allocate, or
// accept a non-canonical encoding.
// ---------------------------------------------------------------------------

TEST(CodecTortureTest, RandomizedTruncationRejectedOnEveryVariant) {
  Rng rng(31337);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 20; ++iter) {
      const std::string bytes = encode(random_message(variant, rng));
      for (int cut_iter = 0; cut_iter < 16; ++cut_iter) {
        const auto cut = rng.index(bytes.size());
        EXPECT_FALSE(decode(bytes.substr(0, cut)).has_value())
            << "variant " << variant << " truncated to " << cut << "/"
            << bytes.size();
      }
    }
  }
}

TEST(CodecTortureTest, RandomizedBitFlipsNeverCrashOnAnyVariant) {
  Rng rng(6061);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 40; ++iter) {
      std::string bytes = encode(random_message(variant, rng));
      const auto pos = rng.index(bytes.size());
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     (1u << rng.uniform(0, 7)));
      const auto result = decode(bytes);
      if (result.has_value()) {
        // Anything accepted must re-encode without amplification (a history
        // ack's map keys may arrive permuted, so byte identity is only
        // guaranteed up to canonical ordering) and round-trip exactly.
        const std::string reenc = encode(*result);
        EXPECT_LE(reenc.size(), bytes.size()) << "variant " << variant;
        const auto again = decode(reenc);
        ASSERT_TRUE(again.has_value()) << "variant " << variant;
        EXPECT_EQ(*again, *result) << "variant " << variant;
      }
    }
  }
}

TEST(CodecTortureTest, OversizedLengthPrefixesRejectedOnEveryVariant) {
  // Stamp a hostile 0xFFFFFFFF over every aligned 4-byte window of every
  // variant's encoding: whichever length/count prefix it lands on must be
  // rejected without a multi-gigabyte allocation (ASan/OOM would catch it).
  Rng rng(90125);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    const std::string bytes = encode(random_message(variant, rng));
    for (std::size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated.replace(pos, 4, 4, '\xff');
      const auto result = decode(mutated);
      if (result.has_value()) {
        EXPECT_LE(encode(*result).size(), mutated.size())
            << "variant " << variant << " pos " << pos;
      }
    }
  }
}

TEST(CodecTortureTest, AllOnesAndAllZeroBodiesRejectedCleanly) {
  for (std::size_t tag = 0; tag < std::variant_size_v<Message>; ++tag) {
    for (const char fill : {'\x00', '\xff'}) {
      for (const std::size_t len : {0u, 1u, 7u, 32u, 257u}) {
        std::string bytes(1, static_cast<char>(tag));
        bytes += std::string(len, fill);
        const auto result = decode(bytes);  // must not crash; usually rejects
        if (result.has_value()) {
          EXPECT_EQ(encode(*result).size(), bytes.size());
        }
      }
    }
  }
}

TEST(CodecTest, HistoryAckSizeGrowsLinearly) {
  // Byte accounting underpins the Section 5.1 experiment: verify the size
  // of a history ack is linear in the number of slots.
  History h;
  HistReadAckMsg small{1, 1, h};
  for (Ts k = 1; k <= 10; ++k) h[k] = HistEntry{TsVal{k, "v"}, std::nullopt};
  HistReadAckMsg big{1, 1, h};
  const auto small_sz = encoded_size(Message{small});
  const auto big_sz = encoded_size(Message{big});
  EXPECT_GT(big_sz, small_sz + 10 * 8);  // at least the keys
}

}  // namespace
}  // namespace rr::wire
