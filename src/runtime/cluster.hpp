// Threaded in-process runtime: the same protocol automata that run under the
// discrete-event simulator, deployed on real threads with mailbox queues.
//
// Processes come in two kinds:
//   active   -- each gets its own thread draining its mailbox (base objects,
//               servers, and harness-driven clients),
//   passive  -- owned by a caller thread, which drives the automaton via
//               drive() / with_context() (this realizes blocking operations
//               without the automaton ever blocking).
//
// Every automaton is only ever touched by its owning thread, so the
// protocol code needs no synchronization -- exactly as under the DES.
//
// The message path is engineered around amortization: pay one
// synchronization per *batch* of deliveries, not per message (see
// docs/ARCHITECTURE.md, "Threaded backend hot path"):
//   - Swap-drain mailboxes. Each mailbox is a double-buffered pair of
//     vectors. The consumer takes the slot lock once, swaps the entire
//     inbox into its private drain buffer, and dispatches the whole run
//     lock-free; cleared buffers keep their capacity, so steady-state
//     delivery performs no heap allocation.
//   - Lean envelopes. The hot lane moves only {from, msg}; posted closures
//     (net::PostFn, 128-byte inline buffer) travel in a separate cold lane
//     swapped under the same single lock acquisition, so protocol traffic
//     never drags closure storage through the queue.
//   - Batched accounting. The pending-work counter behind run_quiescent()
//     and the delivered counter are updated once per batch.
//   - Cheap wakeups. Producers notify the consumer condvar only on an
//     empty -> non-empty transition; consumers spin a small adaptive
//     bounded budget on a lock-free hint before parking, and there is no
//     idle timeout poll (stop() notifies every sleeper).
//
// Beyond raw transport the cluster supports the same experiment surface as
// sim::World, so the harness can drive either backend through one
// interface:
//   - post(at, pid, fn): timed closure steps (a timer thread moves due
//     closures into the target's cold lane),
//   - crash(pid), held channels and link faults, all net::ChannelProxy's
//     policy: the cluster enqueues (or timer-defers) each copy the proxy
//     lets through and asks its delivery gate before each step,
//   - run_quiescent(): blocks until no queued, buffered-timer, or in-flight
//     work remains (held-channel buffers do not count, mirroring World::run),
//   - NetStats accounting identical to the simulator's (same counting
//     visitor for bytes), plus optional codec round-tripping per delivery.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/proxy.hpp"
#include "net/stats.hpp"

namespace rr::runtime {

struct ClusterOptions {
  std::uint64_t seed{1};
  /// Maximum artificial delivery jitter (microseconds, sampled uniformly;
  /// 0 disables). Applied by the receiving thread, so senders never block.
  std::uint32_t max_jitter_us{0};
  /// Account encoded bytes for every message (same counting visitor as the
  /// simulator, so cross-backend byte counts are comparable).
  bool account_bytes{true};
  /// Round-trip every message through the binary codec before delivery.
  bool reserialize{false};
  /// Swap-drain batching (default). When false, every mailbox lock
  /// acquisition pops a single envelope -- the per-message reference path
  /// the batching-speedup bench ratio and the delivery-semantics parity
  /// tests compare against. Semantics are identical either way.
  bool batched_drain{true};
  /// Upper bound on the adaptive pre-park spin (iterations of a lock-free
  /// hint check; 0 parks immediately). The credit grows when work arrives
  /// while spinning and halves on every futile park, so oversubscribed
  /// (e.g. single-core) runs decay toward parking directly.
  std::uint32_t max_spin_iters{256};
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers a process. Active processes get a thread at start().
  ProcessId add(std::unique_ptr<net::Process> p, bool active);

  void start();
  void stop();

  /// Runs `fn` as a step of passive process `pid` on the calling thread
  /// (e.g. to invoke an operation on a client automaton).
  void with_context(ProcessId pid, const std::function<void(net::Context&)>& fn);

  /// Drains `pid`'s mailbox on the calling thread until `done()` returns
  /// true. Returns false on timeout. Calls for the same passive pid must be
  /// externally serialized (they resume the slot's private drain buffer).
  bool drive(ProcessId pid, const std::function<bool()>& done,
             std::chrono::milliseconds timeout);

  /// Schedules `fn` to run as a step of process `pid` at time `at`
  /// (nanoseconds on the cluster clock; values in the past run immediately).
  /// Thread-safe; may be called before start(). Closures that fit
  /// net::PostFn's inline buffer are stored without heap allocation.
  void post(Time at, ProcessId pid, net::PostFn fn);

  /// Blocks until no work remains: empty mailboxes, no pending timers, no
  /// step in flight. Messages buffered on held channels do not count.
  /// Returns false on timeout.
  bool run_quiescent(std::chrono::milliseconds timeout);

  /// Crashes and held channels follow net::ChannelProxy's rules (see
  /// net/proxy.hpp). A released backlog is enqueued FIFO.
  void crash(ProcessId pid) { proxy_.crash(pid); }
  void hold(ProcessId from, ProcessId to) { proxy_.hold(from, to); }
  void hold_all(ProcessId pid) { proxy_.hold_all(pid); }
  void release(ProcessId from, ProcessId to);
  void release_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const {
    return proxy_.held(from, to);
  }

  /// Installs probabilistic link faults (loss / duplication / reorder),
  /// mirroring sim::World::set_link_faults. Must be called after the last
  /// add() and before start(): each slot gets its own fault-sampling RNG
  /// (route() for `from` only ever runs on the thread stepping `from`, so
  /// the per-sender stream needs no lock). Reordered copies are deferred
  /// through the timer by `lf.reorder_delay` wall-nanoseconds.
  void set_link_faults(const net::LinkFaults& lf);

  /// Marks `pid` gray (slow-but-alive): every step it takes -- message
  /// deliveries and posted closures alike -- is preceded by a
  /// `step_delay_ns` sleep on its stepping thread. 0 clears. The threaded
  /// twin of the DES's delay multiplier: the process answers everything,
  /// just late. Thread-safe; takes effect on the next step.
  void set_gray(ProcessId pid, std::uint64_t step_delay_ns);

  [[nodiscard]] net::Process& process(ProcessId pid);
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] Time now() const;
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Aggregated traffic statistics. Counters live per slot and are written
  /// lock-free by their owning threads; call this only after the cluster
  /// has quiesced (run_quiescent) or stopped for exact numbers.
  [[nodiscard]] net::NetStats stats() const;

 private:
  friend class ClusterContext;

  /// Hot-lane envelope: what protocol traffic actually moves through the
  /// mailbox. Posted closures travel in the cold lane (a plain
  /// net::PostFn vector), so the hot lane never carries closure storage.
  struct MsgEnvelope {
    ProcessId from{kNoProcess};
    wire::Message msg{};
  };

  struct Slot {
    std::unique_ptr<net::Process> proc;
    bool active{false};
    Rng rng{0};
    /// Link-fault sampling stream; touched only by the thread stepping
    /// this process (route() is sender-side), see set_link_faults.
    Rng link_rng{0};
    /// Gray (slow-but-alive) injected per-step delay; 0 = healthy.
    std::atomic<std::uint64_t> gray_ns{0};
    /// Step-exclusivity token: held by whichever thread is currently
    /// running a step of this automaton -- its mailbox thread during a
    /// batch, or a sender delivering directly into an idle destination.
    /// acquire/release ordering hands the automaton state between them.
    std::atomic<bool> stepping{false};

    // --- producer side: guarded by mu ---------------------------------
    std::mutex mu;
    std::condition_variable cv;
    std::vector<MsgEnvelope> inbox;      ///< hot lane: {from, msg}
    std::vector<net::PostFn> cold_inbox; ///< cold lane: posted closures
    /// Consumed prefixes of the inbox lanes; advanced only by the
    /// per-message (unbatched) consumer, always 0 under swap-drain.
    std::size_t inbox_head{0};
    std::size_t cold_head{0};
    /// Lock-free "work queued" hint the consumer spins on before parking.
    std::atomic<std::uint32_t> queued_hint{0};

    // --- consumer side: touched only by the owning thread -------------
    /// Double buffers: swap-drain exchanges them with the inbox lanes
    /// under one lock acquisition; clearing keeps capacity, so the
    /// steady state allocates nothing.
    std::vector<MsgEnvelope> drain;
    std::vector<net::PostFn> cold_drain;
    /// Resume positions for incremental consumers (drive()).
    std::size_t drain_pos{0};
    std::size_t cold_pos{0};
    /// Adaptive spin budget (grows on spin hits, halves on futile parks).
    std::uint32_t spin_credit{0};

    /// Per-slot traffic counters, lock-free by ownership: both sender- and
    /// delivery-side fields are written only by the thread currently
    /// holding this slot's stepping token (its mailbox thread during a
    /// batch, a sender during a direct delivery, a driver inside drive()),
    /// so the token's acquire/release ordering serializes them. stats()
    /// aggregates after quiescence.
    net::NetStats local_stats;

    /// Items queued and not yet handed to the consumer (mu held).
    [[nodiscard]] std::size_t queued_unlocked() const {
      return (inbox.size() - inbox_head) + (cold_inbox.size() - cold_head);
    }
  };

  /// A timed closure, or (is_msg) a reorder-deferred copy that re-enters
  /// `pid`'s hot lane through the delivery gate when due.
  struct TimedItem {
    Time at{};
    std::uint64_t seq{};
    ProcessId pid{kNoProcess};
    net::PostFn fn{};
    bool is_msg{false};
    MsgEnvelope msg{};
  };

  /// Heap order for timer_heap_ (min-heap on (at, seq)); the single source
  /// of truth for both push_heap in post() and pop_heap in timer_main().
  [[nodiscard]] static bool timed_later(const TimedItem& a,
                                        const TimedItem& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  void route(ProcessId from, ProcessId to, wire::Message msg);
  /// Counts one timed item as pending work and pushes it on the timer heap.
  void push_timer(TimedItem item);
  /// Appends to `pid`'s hot/cold lane -- unless the destination is an idle
  /// active process, in which case the work is delivered directly on the
  /// calling thread (see direct_delivery_). `already_counted` says whether
  /// this work item was already added to pending_ (timer items are counted
  /// at post() time so quiescence never observes a gap between timer pop
  /// and enqueue). Notifies the consumer only on empty -> non-empty.
  /// Messages pass the proxy's delivery gate first, so a copy to a crashed
  /// slot is dropped here and passive slots nobody drives still quiesce.
  void enqueue_msg(ProcessId pid, MsgEnvelope env, bool already_counted);
  void enqueue_fn(ProcessId pid, net::PostFn fn, bool already_counted);
  void finish_work_items(std::int64_t n);
  /// Spins (with yields) until `slot`'s stepping token is acquired,
  /// futex-waiting if the holder runs a long step.
  void acquire_token(Slot& slot);
  void release_token(Slot& slot);
  class TokenGuard;  ///< RAII release (exception-safe), defined in the .cpp
  /// Appends one item to the matching lane of `pid`'s mailbox -- or runs
  /// it right here when the destination is idle (direct delivery). The
  /// single definition of the producer-side protocol for both lanes.
  template <class Item>
  void enqueue_item(ProcessId pid, Item item, bool already_counted);

  /// Delivers one hot-lane envelope as a step of `pid` (delivery gate,
  /// jitter, optional codec round-trip). Returns true when the message was
  /// actually delivered (vs. dropped). Does not touch pending_/delivered_.
  bool deliver_msg(net::Context& ctx, Slot& slot, MsgEnvelope env);
  /// Runs one cold-lane closure as a step of `pid` (skipped if crashed).
  void deliver_fn(net::Context& ctx, Slot& slot, net::PostFn fn);
  /// Swaps both inbox lanes into the drain buffers (mu held by caller).
  void swap_lanes(Slot& slot);
  /// Dispatches everything currently in the drain buffers, then updates
  /// delivered_ and pending_ once.
  void run_batch(ProcessId pid, Slot& slot);

  void thread_main(ProcessId pid);
  void thread_main_unbatched(ProcessId pid);
  void timer_main();

  ClusterOptions opts_;
  Rng seeder_;
  /// The cheapest wakeup is none: when a message's (or due closure's)
  /// destination is an active process whose stepping token is free, the
  /// sending thread runs the destination's step directly instead of
  /// enqueueing and waking its mailbox thread -- zero condvar round trips
  /// along an idle request-response chain, while busy destinations keep
  /// genuine concurrency. Off when jitter is on (jitter must sleep on the
  /// receiving thread) and in the per-message reference mode. Passive
  /// slots are never targets: their steps must stay on the driving thread
  /// (drive()'s done() condition reads results without synchronization).
  bool direct_delivery_{true};
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::thread timer_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> delivered_{0};
  bool started_{false};
  /// True once start() has finished every on_start: direct delivery must
  /// not run a process's step before its on_start (queued deliveries only
  /// begin when the mailbox threads spin up, which is also after).
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;

  // Timed closures, ordered by (at, seq).
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<TimedItem> timer_heap_;
  std::uint64_t timer_seq_{0};

  // Outstanding work: queued envelopes + pending timers + steps in flight.
  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  /// Crash, hold and link-fault policy; its send path is one branch when
  /// no rule or held channel is active.
  net::ChannelProxy proxy_;
};

}  // namespace rr::runtime
