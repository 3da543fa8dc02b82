// Binary serialization of wire messages.
//
// Little-endian fixed-width scalars, u32 length prefixes for strings and
// containers, u8 presence flags for optionals, u8 variant tag. decode()
// returns nullopt on any malformed input (trailing bytes, truncation,
// oversized length prefixes) -- it never throws and never reads out of
// bounds, which makes it safe to fuzz and safe against malicious bytes.
//
// The codec serves three purposes:
//   1. byte accounting for the Section 5.1 message-size experiments,
//   2. exact state/message snapshots in the lower-bound orchestrator
//      (indistinguishability of runs is checked on encoded bytes),
//   3. a realistic substrate boundary: the net backend frames encode()
//      bytes over sockets, and the in-memory runtimes can optionally round-
//      trip every message through bytes to prove protocol code never relies
//      on object identity.
//
// A shard envelope (ShardMsg) is encoded with its inner message inline,
// length-prefixed; decode() rejects an envelope nested in an envelope.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "wire/messages.hpp"

namespace rr::wire {

/// Serializes a message (always succeeds).
[[nodiscard]] std::string encode(const Message& m);

/// Parses a message from a borrowed byte view (nothing is copied but the
/// message's own fields); nullopt on malformed input.
[[nodiscard]] std::optional<Message> decode(std::string_view bytes);

/// Size in bytes of the encoded form (the metric used for bytes-on-wire
/// accounting).
[[nodiscard]] std::size_t encoded_size(const Message& m);

}  // namespace rr::wire
