// Multi-register sharding: K independent SWMR emulations over one set of
// base objects.
//
// A sharded deployment runs K registers ("shards"), each with its own
// writer and R readers, all served by the same S base-object processes.
// Each base-object process hosts K independent register instances (the
// paper's automaton, unmodified); every message travels wrapped in a
// wire::ShardMsg tagging the register it belongs to, and the object host
// demultiplexes on that tag.
//
// The protocol automata are reused without change: each shard's automata
// are built against the *logical* single-register topology (writer 0,
// readers 1..R, objects R+1..R+S) and run behind a translating Context that
// maps logical process ids to the physical sharded layout and wraps /
// unwraps the ShardMsg envelope. Safety per shard therefore follows
// directly from the single-register protocol's safety -- shards share
// nothing but the transport.
//
// The envelope holds the typed inner message: sending moves the message
// into it, and delivery hands the automaton a reference to it. The
// adapters never run the codec; bytes exist only where a backend needs
// them (net frames, reserialize, byte accounting), and there the codec
// encodes and decodes the envelope with its inner message inline.
//
// Physical process id layout for K shards, R readers/shard, S objects:
//   writers   0 .. K-1          (shard s's writer is pid s)
//   readers   K .. K+K*R-1      (shard s's reader j is pid K + s*R + j)
//   objects   K(1+R) .. +S-1    (object i is pid K(1+R) + i)
// With K = 1 this degenerates to the classic Topology layout, which is why
// the unsharded Deployment can skip the adapters entirely.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/client_api.hpp"
#include "net/process.hpp"

namespace rr::harness {

/// Physical <-> logical process-id arithmetic for a sharded deployment.
struct ShardLayout {
  int shards{1};   ///< K registers
  int readers{1};  ///< R readers per shard
  int objects{1};  ///< S base objects (shared by all shards)

  [[nodiscard]] ProcessId writer(int s) const { return s; }
  [[nodiscard]] ProcessId reader(int s, int j) const {
    return shards + s * readers + j;
  }
  [[nodiscard]] ProcessId object(int i) const {
    return shards * (1 + readers) + i;
  }
  [[nodiscard]] int num_processes() const {
    return shards * (1 + readers) + objects;
  }

  /// The single-register topology every automaton is built against.
  [[nodiscard]] Topology logical() const { return {readers, objects}; }

  /// Maps a logical pid (of shard `s`'s emulation) to the physical pid.
  [[nodiscard]] ProcessId to_physical(int s, ProcessId logical) const {
    if (logical == 0) return writer(s);
    if (logical <= readers) return reader(s, logical - 1);
    return object(logical - 1 - readers);
  }

  /// Maps a physical pid back to its logical pid (object pids map to the
  /// same logical object pid for every shard).
  [[nodiscard]] ProcessId to_logical(ProcessId physical) const {
    if (physical < shards) return 0;
    if (physical < shards * (1 + readers)) {
      return 1 + (physical - shards) % readers;
    }
    return 1 + readers + (physical - shards * (1 + readers));
  }

  /// Shard owning a client pid; -1 for (shared) object pids.
  [[nodiscard]] int shard_of(ProcessId physical) const {
    if (physical < shards) return physical;
    if (physical < shards * (1 + readers)) {
      return (physical - shards) / readers;
    }
    return -1;
  }
};

/// Writer adapter: runs an unmodified writer automaton as shard `shard` of
/// a sharded deployment (translating pids, wrapping/unwrapping ShardMsg).
class ShardWriter final : public core::WriterClient {
 public:
  ShardWriter(const ShardLayout& layout, int shard,
              std::unique_ptr<core::WriterClient> inner);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override;
  void write(net::Context& ctx, Value v, core::WriteCallback cb) override;

  [[nodiscard]] core::WriterClient& inner() { return *inner_; }

 private:
  ShardLayout layout_;
  int shard_;
  std::unique_ptr<core::WriterClient> inner_;
};

/// Reader adapter, same translation for a reader automaton.
class ShardReader final : public core::ReaderClient {
 public:
  ShardReader(const ShardLayout& layout, int shard, int reader_index,
              std::unique_ptr<core::ReaderClient> inner);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override;
  void read(net::Context& ctx, core::ReadCallback cb) override;

  [[nodiscard]] core::ReaderClient& inner() { return *inner_; }

 private:
  ShardLayout layout_;
  int shard_;
  int reader_index_;
  std::unique_ptr<core::ReaderClient> inner_;
};

/// Base-object host: K independent register instances behind one process.
/// Messages arrive as ShardMsg and are dispatched to instance `reg`; each
/// instance replies through the translating context of its own shard.
class ShardedObjectHost final : public net::Process {
 public:
  /// Builds instance `s` of this object (honest automaton or Byzantine
  /// impostor; the factory sees the logical topology).
  using InstanceFactory =
      std::function<std::unique_ptr<net::Process>(RegisterId s)>;

  ShardedObjectHost(const ShardLayout& layout, int object_index,
                    const InstanceFactory& make_instance);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override;

  /// Direct access to one register instance (tests / diagnostics).
  [[nodiscard]] net::Process& instance(RegisterId s);

 private:
  ShardLayout layout_;
  int index_;
  std::vector<std::unique_ptr<net::Process>> instances_;
};

}  // namespace rr::harness
