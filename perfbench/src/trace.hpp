// Out-of-tree span tracing for the benchmark.
//
// The benchmark times the library's layers from outside, without touching
// src/: every automaton it registers with a backend can sit behind a
// TracedProcess, which hands the inner automaton a TracedContext. Together
// they open a span around each layer boundary the benchmark can see:
//
//   core / objects / adversary   an automaton step (on_message), or a client
//                                op invocation (write / read)
//   send                         Context::send into the substrate (netio,
//                                runtime or sim, by backend)
//   checker                      HistoryLog::record_* calls
//   harness                      the posted invocation closure itself
//
// A span records its layer, start, end, parent span and op id. The op id is
// (client pid, op seq): every message goes to or from exactly one client and
// each client has one op in flight, so a step or send is attributed to the
// op its client is currently running. A layer's self time is its span minus
// the child spans nested inside it on the same thread -- on the threads
// backend the destination's step can run inline inside the sender's send.
//
// Spans live in bounded per-thread logs (the first N of the measured phase,
// for the Chrome trace); per-layer totals are exact. Nothing is shared
// between threads on the hot path except the per-client op counters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/process.hpp"
#include "wire/messages.hpp"

namespace perfbench {

using rr::ProcessId;
using rr::Time;

enum class Layer : std::uint8_t {
  Harness,
  Core,
  Objects,
  Adversary,
  Send,
  Checker
};
inline constexpr std::size_t kLayers = 6;

/// Display name of a layer (the src/ module it times); `send` is reported
/// under the substrate's module name by the caller.
[[nodiscard]] const char* layer_name(Layer l);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct OpId {
  ProcessId client{rr::kNoProcess};
  std::uint32_t seq{0};
};

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = a root span on its thread
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  OpId op{};
  Layer layer{Layer::Harness};
  std::uint32_t thread{0};
};

struct LayerTotals {
  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::uint64_t self_ns{0};
};

class Tracer {
 public:
  /// Clients are the pids below `num_clients` (writers and readers come
  /// first in every layout); `span_cap` and `sample_cap` bound each
  /// thread's span log and delivered-message sample.
  Tracer(int num_clients, std::size_t span_cap, std::size_t sample_cap);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts the next op of `client` and returns its id.
  OpId begin_op(ProcessId client);
  /// The op a step or send between `a` and `b` belongs to: the current op
  /// of whichever endpoint is a client.
  [[nodiscard]] OpId op_between(ProcessId a, ProcessId b) const;

  void open(Layer layer, OpId op);
  void close();

  /// Offers a delivered message to this thread's bounded sample: the first
  /// `sample_cap` deliveries, then every 64th overwrites a slot in turn, so
  /// the sample follows the delivery mix.
  void sample(const rr::wire::Message& msg);

  /// Forgets totals, spans and samples (call only while the backend is
  /// quiescent, e.g. between warmup and the measured phase).
  void reset();

  // Read-outs: call only while the backend is quiescent.
  [[nodiscard]] std::array<LayerTotals, kLayers> totals() const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<rr::wire::Message> samples() const;
  [[nodiscard]] std::uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  struct ThreadLog;
  ThreadLog& local();

  int num_clients_;
  std::size_t span_cap_;
  std::size_t sample_cap_;
  std::uint64_t generation_;  ///< distinguishes tracers for thread caches
  std::uint64_t epoch_ns_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> op_seq_;  ///< [client]
  mutable std::mutex mu_;  ///< guards logs_ (registration and read-outs)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; a null tracer makes it a no-op, so traced and untraced runs
/// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, OpId op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(layer, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Context decorator: forwards everything to the backend's context and
/// times each send as a `send` span of the op it belongs to.
class TracedContext final : public rr::net::Context {
 public:
  TracedContext(rr::net::Context& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] ProcessId self() const override { return inner_.self(); }
  [[nodiscard]] Time now() const override { return inner_.now(); }
  void send(ProcessId to, rr::wire::Message msg) override;
  [[nodiscard]] rr::Rng& rng() override { return inner_.rng(); }

 private:
  rr::net::Context& inner_;
  Tracer& tracer_;
};

/// Process decorator: times each step of the inner automaton as a span of
/// `layer` and hands it a TracedContext.
class TracedProcess final : public rr::net::Process {
 public:
  TracedProcess(std::unique_ptr<rr::net::Process> inner, Tracer& tracer,
                Layer layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}

  void on_start(rr::net::Context& ctx) override;
  void on_message(rr::net::Context& ctx, ProcessId from,
                  const rr::wire::Message& msg) override;

 private:
  std::unique_ptr<rr::net::Process> inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// Writes the spans as Chrome trace-event JSON ("X" events). Each op is one
/// timeline: pid = the op's client, tid = its op seq, so opening a trace
/// viewer on the file shows one row per op. Returns false on I/O error.
bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const char* send_layer_name);

}  // namespace perfbench
