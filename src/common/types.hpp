// Core value types shared by every protocol in the library.
//
// Terminology follows Guerraoui & Vukolic, "How Fast Can a Very Robust Read
// Be?" (PODC 2006): the storage emulates a single-writer multi-reader (SWMR)
// register over S base objects, of which at most t may fail and at most b of
// those failures may be arbitrary (Byzantine).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rr {

/// Writer timestamp. Timestamp 0 is reserved for the initial value (bottom).
using Ts = std::uint64_t;

/// Reader timestamp (the control data readers store into base objects).
using ReaderTs = std::uint64_t;

/// Virtual time in nanoseconds (discrete-event simulator clock).
using Time = std::uint64_t;

/// Identifies one register instance in a sharded deployment. A classic
/// single-register emulation is shard 0 of a 1-shard deployment; sharded
/// deployments host K independent SWMR registers over the same base
/// objects, each with its own writer and reader set.
using RegisterId = std::uint32_t;

/// Opaque register contents. The initial register value ("bottom", the paper's
/// special value that is not a valid WRITE input) is represented by the empty
/// payload at timestamp 0; see TsVal::is_bottom().
using Value = std::string;

/// A timestamp-value pair <ts, v>: the unit the writer pre-writes (the paper's
/// "pw" field contents).
struct TsVal {
  Ts ts{0};
  Value val{};

  /// The register's initial content: <0, bottom>.
  [[nodiscard]] static TsVal bottom() { return TsVal{}; }
  [[nodiscard]] bool is_bottom() const { return ts == 0; }

  friend bool operator==(const TsVal&, const TsVal&) = default;
  friend auto operator<=>(const TsVal&, const TsVal&) = default;
};

/// One base object's vector of reader timestamps, indexed by reader id
/// (the paper's tsr[1..R] field). Size R.
using TsrRow = std::vector<ReaderTs>;

/// The nested form of a tsrarray: entry i is object i's row, or nil
/// (nullopt). Only a way to build or inspect a TsrArray.
using TsrRows = std::vector<std::optional<TsrRow>>;

/// The array-of-arrays of reader timestamps the writer collects in its first
/// (PW) round and embeds into the written tuple (the paper's
/// "tsrarray[1..S][1..R]"). Row i is nil when object i's PW_ACK was not
/// among the S-t the writer awaited.
///
/// Immutable and shared. One heap block holds the row offsets, the nil
/// bitmap and every reader timestamp (a CSR layout, so the ragged rows a
/// Byzantine object can put on the wire decode and re-encode byte for
/// byte), plus a content hash computed when the block is sealed. Copies
/// share the block: a tuple travels through PW/W messages, object state,
/// read acks, reader candidates and history slots for a reference count.
/// Equality tests the block pointer, then the hash, then the contents. A
/// zero-row array holds no block.
class TsrArray {
 public:
  class Builder;

  TsrArray() = default;
  /// Seals the nested form.
  explicit TsrArray(const TsrRows& rows);

  /// Number of rows (S for a writer-made array).
  [[nodiscard]] std::size_t size() const {
    return block_ ? static_cast<std::size_t>(block_[kRows]) : 0;
  }
  /// Whether row i exists and is not nil.
  [[nodiscard]] bool has_row(std::size_t i) const {
    return i < size() && ((bitmap()[i / 64] >> (i % 64)) & 1) != 0;
  }
  /// Row i; empty when it is nil or past the end.
  [[nodiscard]] std::span<const ReaderTs> row(std::size_t i) const {
    if (!has_row(i)) return {};
    const std::uint64_t* off = offsets();
    return {data() + off[i], static_cast<std::size_t>(off[i + 1] - off[i])};
  }
  /// Content hash, fixed when the block was sealed (0 for zero rows).
  [[nodiscard]] std::uint64_t hash() const {
    return block_ ? block_[kHash] : 0;
  }
  /// The nested form (a fresh copy).
  [[nodiscard]] TsrRows rows() const;

  friend bool operator==(const TsrArray& a, const TsrArray& b);

 private:
  // Block layout, in 64-bit words: [hash][rows][offsets: rows + 1]
  // [bitmap: ceil(rows / 64)][reader timestamps]. Row i spans
  // data()[offsets[i], offsets[i + 1]); a nil row spans nothing.
  static constexpr std::size_t kHash = 0;
  static constexpr std::size_t kRows = 1;
  static constexpr std::size_t kOffsets = 2;

  [[nodiscard]] static std::size_t bitmap_words(std::size_t rows) {
    return (rows + 63) / 64;
  }
  [[nodiscard]] const std::uint64_t* offsets() const {
    return block_.get() + kOffsets;
  }
  [[nodiscard]] const std::uint64_t* bitmap() const {
    return offsets() + size() + 1;
  }
  [[nodiscard]] const ReaderTs* data() const {
    return bitmap() + bitmap_words(size());
  }
  [[nodiscard]] std::size_t words() const {
    return kOffsets + size() + 1 + bitmap_words(size()) + offsets()[size()];
  }

  std::shared_ptr<const std::uint64_t[]> block_;
};

/// Assembles a TsrArray row by row, in any order, then seals it into one
/// block. Reusable: reset() keeps the scratch capacity, so a writer that
/// seals one array per WRITE allocates only the sealed block.
class TsrArray::Builder {
 public:
  /// Starts over with `rows` nil rows.
  void reset(std::size_t rows);
  /// Makes row i (< rows) a zero-filled row of `len` entries, replacing any
  /// earlier one, and returns it for filling; valid until the next set().
  std::span<ReaderTs> set(std::size_t i, std::size_t len);
  [[nodiscard]] TsrArray seal() const;

 private:
  struct Slot {
    std::size_t off{0};
    std::size_t len{0};
    bool present{false};
  };
  std::vector<Slot> slots_;
  std::vector<ReaderTs> data_;
};

/// The full tuple stored in an object's "w" field: <tsval, tsrarray>.
/// Candidate values in the read protocol range over WTuples. Copying one
/// copies the pair and shares the tsrarray block.
struct WTuple {
  TsVal tsval{};
  TsrArray tsrarray{};

  friend bool operator==(const WTuple&, const WTuple&) = default;
};

/// Initial tsrarray: all entries nil.
[[nodiscard]] inline TsrArray init_tsrarray(std::size_t num_objects) {
  return TsrArray(TsrRows(num_objects));
}

/// Initial w-field tuple w0 = <<0, bottom>, inittsrarray>.
[[nodiscard]] inline WTuple initial_wtuple(std::size_t num_objects) {
  return WTuple{TsVal::bottom(), init_tsrarray(num_objects)};
}

/// Resilience configuration of a storage emulation.
///
/// Invariants (checked by validate()): b >= 1 (the paper assumes b > 0;
/// crash-only configurations are expressed by the ABD baseline), b <= t,
/// and num_objects >= 2t + b + 1 (the optimal-resilience lower bound of
/// Martin, Alvisi & Dahlin, except for the lower-bound module which
/// deliberately instantiates infeasible configurations).
struct Resilience {
  int num_objects{0};  ///< S
  int t{0};            ///< max faulty base objects
  int b{0};            ///< max arbitrary-faulty base objects (b <= t)
  int num_readers{1};  ///< R

  [[nodiscard]] static Resilience optimal(int t, int b, int num_readers = 1) {
    return Resilience{2 * t + b + 1, t, b, num_readers};
  }

  /// Size of the quorum a client awaits per round: S - t.
  [[nodiscard]] int quorum() const { return num_objects - t; }

  /// True when the configuration satisfies the feasibility bound S >= 2t+b+1.
  [[nodiscard]] bool feasible() const {
    return num_objects >= 2 * t + b + 1;
  }

  [[nodiscard]] bool valid() const {
    return t >= 1 && b >= 0 && b <= t && num_objects >= 1 &&
           num_readers >= 1 && quorum() >= 1;
  }

  friend bool operator==(const Resilience&, const Resilience&) = default;
};

/// Identifies the role of a process in the emulation.
enum class Role : std::uint8_t { Writer, Reader, Object };

[[nodiscard]] constexpr const char* to_string(Role r) {
  switch (r) {
    case Role::Writer: return "writer";
    case Role::Reader: return "reader";
    case Role::Object: return "object";
  }
  return "?";
}

/// Flat process identifier used by both runtimes. The conventional layout for
/// a deployment with R readers and S objects is: writer = 0, readers =
/// 1..R, objects = R+1..R+S (see Topology).
using ProcessId = std::int32_t;

constexpr ProcessId kNoProcess = -1;

/// Maps between (role, index) pairs and flat ProcessIds for the standard
/// single-writer deployment.
class Topology {
 public:
  Topology(int num_readers, int num_objects)
      : num_readers_(num_readers), num_objects_(num_objects) {}

  [[nodiscard]] ProcessId writer() const { return 0; }
  [[nodiscard]] ProcessId reader(int j) const { return 1 + j; }  // j in [0,R)
  [[nodiscard]] ProcessId object(int i) const {                  // i in [0,S)
    return 1 + num_readers_ + i;
  }

  [[nodiscard]] int num_readers() const { return num_readers_; }
  [[nodiscard]] int num_objects() const { return num_objects_; }
  [[nodiscard]] int num_processes() const {
    return 1 + num_readers_ + num_objects_;
  }

  [[nodiscard]] Role role_of(ProcessId p) const {
    if (p == 0) return Role::Writer;
    if (p <= num_readers_) return Role::Reader;
    return Role::Object;
  }
  /// Reader index of a reader ProcessId.
  [[nodiscard]] int reader_index(ProcessId p) const { return p - 1; }
  /// Object index of an object ProcessId.
  [[nodiscard]] int object_index(ProcessId p) const {
    return p - 1 - num_readers_;
  }
  [[nodiscard]] bool is_object(ProcessId p) const {
    return p > num_readers_ && p < num_processes();
  }

 private:
  int num_readers_;
  int num_objects_;
};

}  // namespace rr
