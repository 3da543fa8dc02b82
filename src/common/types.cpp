#include "common/types.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rr {

TsrArray::TsrArray(const TsrRows& rows) {
  Builder b;
  b.reset(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i]) continue;
    const auto row = b.set(i, rows[i]->size());
    std::copy(rows[i]->begin(), rows[i]->end(), row.begin());
  }
  *this = b.seal();
}

TsrRows TsrArray::rows() const {
  TsrRows out(size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!has_row(i)) continue;
    const auto r = row(i);
    out[i].emplace(r.begin(), r.end());
  }
  return out;
}

bool operator==(const TsrArray& a, const TsrArray& b) {
  if (a.block_ == b.block_) return true;
  if (!a.block_ || !b.block_) return false;  // only zero rows has no block
  if (a.hash() != b.hash()) return false;
  const std::size_t n = a.words();
  return n == b.words() && std::equal(a.block_.get() + TsrArray::kRows,
                                      a.block_.get() + n,
                                      b.block_.get() + TsrArray::kRows);
}

void TsrArray::Builder::reset(std::size_t rows) {
  slots_.assign(rows, Slot{});
  data_.clear();
}

std::span<ReaderTs> TsrArray::Builder::set(std::size_t i, std::size_t len) {
  RR_ASSERT(i < slots_.size());
  const std::size_t off = data_.size();
  slots_[i] = Slot{off, len, true};
  data_.resize(off + len, 0);
  return {data_.data() + off, len};
}

TsrArray TsrArray::Builder::seal() const {
  TsrArray out;
  const std::size_t rows = slots_.size();
  if (rows == 0) return out;
  std::size_t total = 0;
  for (const Slot& s : slots_) {
    if (s.present) total += s.len;
  }
  const std::size_t n = kOffsets + rows + 1 + bitmap_words(rows) + total;
  auto block = std::make_shared_for_overwrite<std::uint64_t[]>(n);
  std::uint64_t* const off = block.get() + kOffsets;
  std::uint64_t* const bits = off + rows + 1;
  ReaderTs* const data = bits + bitmap_words(rows);
  std::fill(bits, data, 0);
  block[kRows] = rows;
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    off[i] = at;
    const Slot& s = slots_[i];
    if (!s.present) continue;
    bits[i / 64] |= std::uint64_t{1} << (i % 64);
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(s.off), s.len,
                data + at);
    at += s.len;
  }
  off[rows] = at;
  // The hash covers every word but itself, so equal contents hash alike.
  std::uint64_t h = rows;
  for (std::size_t w = kRows; w < n; ++w) {
    h = (h ^ block[w]) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  block[kHash] = mix64(h);
  out.block_ = std::move(block);
  return out;
}

}  // namespace rr
