#include "codec_replay.hpp"

#include <functional>
#include <map>

#include "trace.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace perfbench {

namespace {

volatile std::size_t g_sink = 0;  // keeps timed results observable

/// Runs `pass` over the whole group until `budget_ns` has elapsed (at least
/// once) and returns ns per message.
double time_passes(std::size_t n, std::uint64_t budget_ns,
                   const std::function<std::size_t()>& pass) {
  std::size_t passes = 0;
  std::size_t sink = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t elapsed = 0;
  do {
    sink += pass();
    ++passes;
    elapsed = now_ns() - t0;
  } while (elapsed < budget_ns);
  g_sink = g_sink + sink;
  return static_cast<double>(elapsed) / static_cast<double>(passes * n);
}

CodecRow replay_group(const std::vector<const rr::wire::Message*>& group,
                      std::uint64_t budget_ns, bool& ok) {
  CodecRow row;
  row.type = rr::wire::type_name(*group.front());
  row.count = group.size();
  std::vector<std::string> encoded;
  encoded.reserve(group.size());
  std::size_t bytes = 0;
  for (const auto* m : group) {
    encoded.push_back(rr::wire::encode(*m));
    bytes += encoded.back().size();
    const auto back = rr::wire::decode(encoded.back());
    if (!back || !(*back == *m)) ok = false;
  }
  row.bytes = static_cast<double>(bytes) / static_cast<double>(group.size());

  row.encode_ns = time_passes(group.size(), budget_ns, [&] {
    std::size_t sink = 0;
    for (const auto* m : group) sink += rr::wire::encode(*m).size();
    return sink;
  });
  row.decode_ns = time_passes(group.size(), budget_ns, [&] {
    std::size_t sink = 0;
    for (const auto& bytes_in : encoded) {
      const auto m = rr::wire::decode(bytes_in);
      sink += m ? m->index() + 1 : 0;
    }
    return sink;
  });
  row.frame_ns = time_passes(group.size(), budget_ns, [&] {
    rr::wire::FrameDecoder dec;
    std::size_t frames = 0;
    const std::function<void(rr::wire::Message&&)> sink =
        [&frames](rr::wire::Message&&) { ++frames; };
    for (const auto* m : group) {
      const std::string frame = rr::wire::encode_frame(*m);
      dec.feed(frame.data(), frame.size(), sink);
    }
    if (frames != group.size()) ok = false;
    return frames;
  });
  return row;
}

}  // namespace

CodecReplay replay_codec(const std::vector<rr::wire::Message>& sample,
                         double budget_ms) {
  CodecReplay out;
  std::map<std::size_t, std::vector<const rr::wire::Message*>> by_type;
  for (const auto& m : sample) by_type[m.index()].push_back(&m);
  const auto budget_ns = static_cast<std::uint64_t>(budget_ms * 1e6);
  out.all.type = "all";
  for (const auto& [index, group] : by_type) {
    (void)index;
    const CodecRow row = replay_group(group, budget_ns, out.ok);
    // The mix-weighted overall row: each type weighs by its share of the
    // delivered sample.
    const auto w = static_cast<double>(row.count);
    out.all.count += row.count;
    out.all.encode_ns += w * row.encode_ns;
    out.all.decode_ns += w * row.decode_ns;
    out.all.frame_ns += w * row.frame_ns;
    out.all.bytes += w * row.bytes;
    out.per_type.push_back(row);
  }
  if (out.all.count > 0) {
    const auto n = static_cast<double>(out.all.count);
    out.all.encode_ns /= n;
    out.all.decode_ns /= n;
    out.all.frame_ns /= n;
    out.all.bytes /= n;
  }
  return out;
}

}  // namespace perfbench
