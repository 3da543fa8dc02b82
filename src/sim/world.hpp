// Deterministic discrete-event simulator for asynchronous message passing.
//
// The World owns a set of processes (net::Process automata), a virtual
// clock, and an event queue of pending message deliveries and scheduled
// closures. Channels are reliable point-to-point links whose delays come
// from a pluggable DelayModel. Crashes, held channels (messages buffered
// indefinitely, realizing the proofs' "messages remain in transit") and
// link faults are net::ChannelProxy's policy; the World is its "deliver
// now / deliver after a delay" sink and asks its delivery gate before each
// step.
//
// Everything is deterministic given the seed: events are ordered by
// (virtual time, insertion sequence).
//
// Hot-path design (the simulator is the throughput ceiling for every
// experiment in this reproduction):
//   - The event slab is struct-of-arrays: the hot (at, seq, dest) key
//     fields the 4-ary min-heap compares live in their own densely packed
//     array (EventKey, 24 bytes), separate from the cold payload array
//     (EventBody: Message plus closure). Heap sift-up/down touches only
//     keys, so one cache line serves two sibling comparisons instead of
//     dragging ~100-byte events through the cache.
//   - Slab slots are recycled through a free list; step() *moves* the due
//     body out of its slot, so messages -- including regular-storage
//     histories -- are never deep-copied after send, and a steady-state
//     delivery performs no heap allocation.
//   - run()/run_until() deliver runs of events with equal (time, dest) as
//     one batch: the context, destination slot, and crash check are set up
//     once per run instead of once per message. Order is untouched -- a
//     batch is exactly a prefix of the (at, seq) sort, and events created
//     while the batch runs always sort after it (larger seq, at >= now).
//   - Posted closures are net::PostFn (small-buffer callables), so timer
//     posts with harness-sized captures never heap-allocate.
//   - Byte accounting uses wire::encoded_size(), a counting visitor that
//     never materializes the encoded bytes.
//   - Per-type stats are fixed arrays indexed by Message::variant index;
//     with no link fault and no held channel, the proxy's send path is a
//     single branch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/proxy.hpp"
#include "net/stats.hpp"
#include "sim/delay.hpp"
#include "wire/messages.hpp"

namespace rr::sim {

/// Traffic statistics now live in net::NetStats (shared with the threaded
/// cluster so cross-backend experiments account traffic identically).
using NetStats = net::NetStats;

struct WorldOptions {
  std::uint64_t seed{1};
  /// Account encoded bytes for every message (needed by the Section 5.1
  /// experiments; small constant cost).
  bool account_bytes{true};
  /// Round-trip every message through the binary codec. Proves automata
  /// depend only on message contents; on by default in tests.
  bool reserialize{false};
  /// Hard cap on executed events (guards against non-terminating bugs).
  std::uint64_t max_events{50'000'000};
  /// Maintain a running hash of the executed schedule (time, destination,
  /// event kind, message type of every event, in execution order). Two runs
  /// with the same seed and inputs produce the same fingerprint; any
  /// divergence in delivery order changes it. Off by default: it costs a
  /// handful of arithmetic ops per event on the hot path.
  bool trace_fingerprint{false};
};

class WorldContext;

class World {
 public:
  using Options = WorldOptions;

  explicit World(Options opts = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Registers a process; ids are assigned densely in registration order so
  /// they match Topology when registered in writer, readers, objects order.
  ProcessId add_process(std::unique_ptr<net::Process> p);

  /// Replaces the automaton behind `pid` (used to swap honest objects for
  /// Byzantine impostors after topology construction).
  void replace_process(ProcessId pid, std::unique_ptr<net::Process> p);

  void set_delay_model(std::unique_ptr<DelayModel> m);

  /// Calls on_start on every process (in id order) at time 0.
  void start();

  /// Schedules `fn` to run as a step of process `pid` at virtual time `at`
  /// (>= now). Used by harnesses to invoke operations. Closures that fit
  /// PostFn's inline buffer are stored without heap allocation.
  void post(Time at, ProcessId pid, net::PostFn fn);

  /// Crashes and held channels follow net::ChannelProxy's rules (see
  /// net/proxy.hpp). A released backlog is scheduled FIFO with fresh delays
  /// from the current time.
  void crash(ProcessId pid) { proxy_.crash(pid); }
  void hold(ProcessId from, ProcessId to) { proxy_.hold(from, to); }
  void hold_all(ProcessId pid) { proxy_.hold_all(pid); }
  void release(ProcessId from, ProcessId to);
  void release_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const {
    return proxy_.held(from, to);
  }

  /// Installs probabilistic link faults (loss / duplication / reorder).
  /// Sampling draws from a dedicated RNG stream seeded by `lf.seed`, so the
  /// base delay sequence of unaffected channels is untouched; the draw
  /// rules are net::ChannelProxy's. A reordered copy's delivery is deferred
  /// by `lf.reorder_delay`.
  void set_link_faults(const net::LinkFaults& lf);

  /// Marks `pid` gray (slow-but-alive): sampled delays on every channel
  /// adjacent to it are multiplied by `factor` (the larger endpoint factor
  /// wins). `factor <= 1` clears the mark. Models a process that answers
  /// everything, just slowly -- legal under the asynchronous model.
  void set_gray(ProcessId pid, double factor);

  /// Skews `pid`'s local clock: Context::now() during its steps returns
  /// now() + offset (clamped at 0). The global event clock is untouched, so
  /// schedules -- and fingerprints -- only change if an automaton acts on
  /// its local reading.
  void set_clock_skew(ProcessId pid, std::int64_t offset);

  /// `pid`'s local clock reading (now() unless skewed).
  [[nodiscard]] Time local_now(ProcessId pid) const {
    if (skew_.empty() || static_cast<std::size_t>(pid) >= skew_.size()) {
      return now_;
    }
    const std::int64_t off = skew_[static_cast<std::size_t>(pid)];
    if (off >= 0) return now_ + static_cast<Time>(off);
    const auto back = static_cast<Time>(-off);
    return now_ > back ? now_ - back : 0;
  }

  /// Executes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until no events remain (messages held on held channels do not
  /// count). Returns the number of events executed. Consecutive deliveries
  /// to the same destination at the same time are dispatched as one batch;
  /// execution order is identical to repeated step().
  std::uint64_t run();

  /// Runs until the virtual clock would pass `deadline` (events at exactly
  /// `deadline` are executed). Returns events executed.
  std::uint64_t run_until(Time deadline);

  [[nodiscard]] Time now() const { return now_; }

  /// Running hash of the executed schedule (see
  /// WorldOptions::trace_fingerprint). 0 until an event executes with
  /// tracing on; bit-identical across runs for identical schedules.
  [[nodiscard]] std::uint64_t schedule_fingerprint() const { return fp_; }

  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] NetStats stats() const {
    NetStats total = stats_;
    total.messages_dropped += proxy_.dropped();
    return total;
  }
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] net::Process& process(ProcessId pid);

 private:
  friend class WorldContext;

  using EventIndex = std::uint32_t;

  /// Hot half of the event slab: everything the heap order and the batch
  /// scan need, 24 bytes per event. keys_[i] and bodies_[i] describe the
  /// same event.
  struct EventKey {
    Time at{};
    std::uint64_t seq{};
    ProcessId dest{kNoProcess};
    bool is_delivery{false};
  };

  /// Cold half: the payload moved out when the event executes.
  struct EventBody {
    ProcessId from{kNoProcess};
    wire::Message msg{};
    net::PostFn fn{};
  };

  struct ProcSlot {
    std::unique_ptr<net::Process> proc;
    Rng rng;
  };

  void do_send(ProcessId from, ProcessId to, wire::Message msg);
  /// The proxy's sink: schedules one copy after a sampled channel delay
  /// plus `defer` (used per sent copy and by release re-injection).
  void schedule_copy(ProcessId from, ProcessId to, wire::Message msg,
                     Time defer);
  /// Samples the channel delay and applies the gray multiplier of either
  /// endpoint.
  [[nodiscard]] Time channel_delay(ProcessId from, ProcessId to);
  /// Executes one event plus, for deliveries, the whole run of queued
  /// deliveries with the same (time, dest). Returns events executed.
  std::uint64_t step_batch();
  /// Runs one delivery's handler (delivery gate + reserialize + stats).
  void deliver_one(WorldContext& ctx, ProcSlot& slot, ProcessId from,
                   wire::Message& msg);

  /// Folds one executed event into the schedule fingerprint (SplitMix64
  /// finalizer over (at, dest, from, kind)). Caller checks the option flag.
  void fp_note(const EventKey& key, const EventBody& body);

  // Slab + free list + index heap.
  [[nodiscard]] EventIndex alloc_event();
  [[nodiscard]] bool event_before(EventIndex a, EventIndex b) const {
    const EventKey& ka = keys_[a];
    const EventKey& kb = keys_[b];
    if (ka.at != kb.at) return ka.at < kb.at;
    return ka.seq < kb.seq;
  }
  void heap_push(EventIndex idx);
  [[nodiscard]] EventIndex heap_pop();

  Options opts_;
  Rng rng_;
  Time now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t fp_{0};
  std::vector<ProcSlot> procs_;

  std::vector<EventKey> keys_;      ///< event slab, hot (at, seq, dest) half
  std::vector<EventBody> bodies_;   ///< event slab, payload half
  std::vector<EventIndex> free_;    ///< recycled slab slots
  std::vector<EventIndex> heap_;    ///< 4-ary min-heap of slab indices

  /// Crash, hold and link-fault policy (the proxy's send path is one
  /// predictable branch when no rule or held channel is active).
  net::ChannelProxy proxy_;
  Rng link_rng_{0};                 ///< dedicated stream for fault sampling
  // Gray and skew state, empty by default: the hot path pays one
  // predictable branch (gray_.empty()) per send.
  std::vector<double> gray_;        ///< per-pid delay multiplier (1 = none)
  std::vector<std::int64_t> skew_;  ///< per-pid local-clock offset

  std::unique_ptr<DelayModel> delay_;
  NetStats stats_;
};

}  // namespace rr::sim
