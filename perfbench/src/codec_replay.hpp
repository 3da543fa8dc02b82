// Codec replay: times the wire layer on a sample of the messages a run
// actually delivered.
//
// Only the net backend encodes on its hot path, and there the codec's cost
// is tangled with syscalls and framing inside Mesh::route. Replaying a
// bounded sample of delivered messages, in their delivery mix, gives the
// wire layer's own cost on every workload: wire::encode, wire::decode, and
// encode_frame + FrameDecoder::feed, per message type and mix-weighted
// overall.
#pragma once

#include <string>
#include <vector>

#include "wire/messages.hpp"

namespace perfbench {

struct CodecRow {
  std::string type;  ///< wire::type_name, or "all" for the weighted mix
  std::size_t count{0};
  double encode_ns{0};
  double decode_ns{0};
  double frame_ns{0};  ///< encode_frame + FrameDecoder::feed
  double bytes{0};     ///< mean encoded payload size
};

struct CodecReplay {
  std::vector<CodecRow> per_type;
  CodecRow all;
  bool ok{true};  ///< every replayed message decoded back to itself
};

/// Replays `sample`, timing each operation for about `budget_ms` per type.
[[nodiscard]] CodecReplay replay_codec(
    const std::vector<rr::wire::Message>& sample, double budget_ms);

}  // namespace perfbench
