#include "wire/frame.hpp"

#include <cstring>

namespace rr::wire {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

std::string encode_frame(const Message& m) { return wrap_frame(encode(m)); }

std::string wrap_frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

bool FrameDecoder::feed(const char* data, std::size_t n,
                        const std::function<void(Message&&)>& sink) {
  if (poisoned_) return false;
  buf_.append(data, n);
  while (buf_.size() - head_ >= kFrameHeaderBytes) {
    const char* hdr = buf_.data() + head_;
    if (get_u32(hdr) != kFrameMagic) {
      stats_.bad_magic++;
      poisoned_ = true;
      return false;
    }
    const std::uint32_t len = get_u32(hdr + 4);
    if (len > max_payload_) {
      stats_.oversized++;
      poisoned_ = true;
      return false;
    }
    if (buf_.size() - head_ < kFrameHeaderBytes + len) break;  // partial
    // Decode straight from the receive buffer: no payload copy.
    auto msg = decode(
        std::string_view(buf_).substr(head_ + kFrameHeaderBytes, len));
    head_ += kFrameHeaderBytes + len;
    if (msg) {
      stats_.frames++;
      sink(std::move(*msg));
    } else {
      stats_.bad_payload++;  // framing intact: skip this frame, keep going
    }
  }
  // Compact the consumed prefix once it dominates the buffer (amortized
  // O(1) per byte; keeps a long-lived connection's buffer bounded by the
  // largest in-flight frame).
  if (head_ > 4096 && head_ * 2 >= buf_.size()) {
    buf_.erase(0, head_);
    head_ = 0;
  }
  return true;
}

}  // namespace rr::wire
