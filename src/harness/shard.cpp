#include "harness/shard.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rr::harness {
namespace {

/// The Context a shard-local automaton steps under: logical self/peers,
/// ShardMsg wrapping on send. Time and randomness pass through to the
/// backend untouched.
class ShardContext final : public net::Context {
 public:
  ShardContext(net::Context& outer, const ShardLayout& layout, int shard,
               ProcessId logical_self)
      : outer_(outer),
        layout_(layout),
        shard_(shard),
        logical_self_(logical_self) {}

  [[nodiscard]] ProcessId self() const override { return logical_self_; }
  [[nodiscard]] Time now() const override { return outer_.now(); }
  [[nodiscard]] Rng& rng() override { return outer_.rng(); }

  void send(ProcessId to, wire::Message msg) override {
    outer_.send(layout_.to_physical(shard_, to),
                wire::ShardMsg{static_cast<RegisterId>(shard_),
                               std::move(msg)});
  }

 private:
  net::Context& outer_;
  const ShardLayout& layout_;
  int shard_;
  ProcessId logical_self_;
};

/// Extracts the ShardMsg envelope (the only thing sharded deployments put
/// on the wire).
const wire::ShardMsg& envelope_of(const wire::Message& msg) {
  const auto* env = std::get_if<wire::ShardMsg>(&msg);
  RR_ASSERT_MSG(env != nullptr,
                "sharded deployments carry only ShardMsg on the wire");
  return *env;
}

/// Delivers an envelope's inner message to `inner` as a step of logical
/// process `logical_self` in `shard`'s emulation.
void deliver_unwrapped(net::Process& inner, const ShardLayout& layout,
                       int shard, ProcessId logical_self, net::Context& outer,
                       ProcessId from, const wire::ShardMsg& env) {
  RR_ASSERT_MSG(static_cast<int>(env.reg) == shard,
                "shard envelope routed to the wrong register instance");
  ShardContext ctx(outer, layout, shard, logical_self);
  inner.on_message(ctx, layout.to_logical(from), *env.inner);
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardWriter
// ---------------------------------------------------------------------------

ShardWriter::ShardWriter(const ShardLayout& layout, int shard,
                         std::unique_ptr<core::WriterClient> inner)
    : layout_(layout), shard_(shard), inner_(std::move(inner)) {}

void ShardWriter::on_start(net::Context& ctx) {
  ShardContext sctx(ctx, layout_, shard_, /*logical_self=*/0);
  inner_->on_start(sctx);
}

void ShardWriter::on_message(net::Context& ctx, ProcessId from,
                             const wire::Message& msg) {
  deliver_unwrapped(*inner_, layout_, shard_, /*logical_self=*/0, ctx, from,
                    envelope_of(msg));
}

void ShardWriter::write(net::Context& ctx, Value v, core::WriteCallback cb) {
  ShardContext sctx(ctx, layout_, shard_, /*logical_self=*/0);
  inner_->write(sctx, std::move(v), std::move(cb));
}

// ---------------------------------------------------------------------------
// ShardReader
// ---------------------------------------------------------------------------

ShardReader::ShardReader(const ShardLayout& layout, int shard,
                         int reader_index,
                         std::unique_ptr<core::ReaderClient> inner)
    : layout_(layout),
      shard_(shard),
      reader_index_(reader_index),
      inner_(std::move(inner)) {}

void ShardReader::on_start(net::Context& ctx) {
  ShardContext sctx(ctx, layout_, shard_, 1 + reader_index_);
  inner_->on_start(sctx);
}

void ShardReader::on_message(net::Context& ctx, ProcessId from,
                             const wire::Message& msg) {
  deliver_unwrapped(*inner_, layout_, shard_, 1 + reader_index_, ctx, from,
                    envelope_of(msg));
}

void ShardReader::read(net::Context& ctx, core::ReadCallback cb) {
  ShardContext sctx(ctx, layout_, shard_, 1 + reader_index_);
  inner_->read(sctx, std::move(cb));
}

// ---------------------------------------------------------------------------
// ShardedObjectHost
// ---------------------------------------------------------------------------

ShardedObjectHost::ShardedObjectHost(const ShardLayout& layout,
                                     int object_index,
                                     const InstanceFactory& make_instance)
    : layout_(layout), index_(object_index) {
  instances_.reserve(static_cast<std::size_t>(layout_.shards));
  for (int s = 0; s < layout_.shards; ++s) {
    instances_.push_back(make_instance(static_cast<RegisterId>(s)));
    RR_ASSERT(instances_.back() != nullptr);
  }
}

void ShardedObjectHost::on_start(net::Context& ctx) {
  const ProcessId logical_self = 1 + layout_.readers + index_;
  for (int s = 0; s < layout_.shards; ++s) {
    ShardContext sctx(ctx, layout_, s, logical_self);
    instances_[static_cast<std::size_t>(s)]->on_start(sctx);
  }
}

void ShardedObjectHost::on_message(net::Context& ctx, ProcessId from,
                                   const wire::Message& msg) {
  const wire::ShardMsg& env = envelope_of(msg);
  RR_ASSERT_MSG(static_cast<int>(env.reg) < layout_.shards,
                "shard tag out of range");
  // Clients are correct processes in the model (only base objects may be
  // Byzantine), so the envelope tag must match the sender's shard.
  RR_ASSERT(layout_.shard_of(from) == static_cast<int>(env.reg));
  deliver_unwrapped(*instances_[env.reg], layout_, static_cast<int>(env.reg),
                    1 + layout_.readers + index_, ctx, from, env);
}

net::Process& ShardedObjectHost::instance(RegisterId s) {
  RR_ASSERT(static_cast<int>(s) < layout_.shards);
  return *instances_[s];
}

}  // namespace rr::harness
