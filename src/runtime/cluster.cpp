#include "runtime/cluster.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "wire/codec.hpp"

namespace rr::runtime {

namespace {

/// One iteration of the pre-park spin: a CPU pause most of the time, a
/// scheduler yield every 8th iteration so a producer sharing the core can
/// make progress (on a single hardware thread a pure pause loop would just
/// burn the consumer's quantum).
inline void spin_pause(std::uint32_t i) {
  if ((i & 0x7) == 0x7) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Minimum pre-park spin budget even when the adaptive credit has decayed
/// to zero: without a floor the credit could never grow again (a zero-spin
/// consumer cannot observe work arriving mid-spin). Kept tiny -- with
/// direct delivery most handoffs never touch the mailbox, so long spins
/// only steal CPU from the thread running the work.
constexpr std::uint32_t kSpinFloor = 8;

}  // namespace

class ClusterContext final : public net::Context {
 public:
  ClusterContext(Cluster& cluster, ProcessId self)
      : cluster_(cluster), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] Time now() const override { return cluster_.now(); }
  void send(ProcessId to, wire::Message msg) override {
    cluster_.route(self_, to, std::move(msg));
  }
  [[nodiscard]] Rng& rng() override {
    return cluster_.slots_[static_cast<std::size_t>(self_)]->rng;
  }

 private:
  Cluster& cluster_;
  ProcessId self_;
};

Cluster::Cluster(ClusterOptions opts)
    : opts_(opts),
      seeder_(opts.seed),
      direct_delivery_(opts.batched_drain && opts.max_jitter_us == 0),
      epoch_(std::chrono::steady_clock::now()) {}

Cluster::~Cluster() { stop(); }

ProcessId Cluster::add(std::unique_ptr<net::Process> p, bool active) {
  RR_ASSERT(!started_);
  RR_ASSERT(p != nullptr);
  auto slot = std::make_unique<Slot>();
  slot->proc = std::move(p);
  slot->active = active;
  slot->rng = seeder_.fork();
  slots_.push_back(std::move(slot));
  proxy_.add_process();
  return static_cast<ProcessId>(slots_.size() - 1);
}

void Cluster::set_link_faults(const net::LinkFaults& lf) {
  RR_ASSERT(!started_);
  proxy_.set_link_faults(lf);
  Rng seeder(mix64(lf.seed ^ 0x11fa'0175'0001ULL));
  for (auto& slot : slots_) slot->link_rng = seeder.fork();
}

void Cluster::set_gray(ProcessId pid, std::uint64_t step_delay_ns) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  slots_[static_cast<std::size_t>(pid)]->gray_ns.store(
      step_delay_ns, std::memory_order_relaxed);
}

void Cluster::start() {
  RR_ASSERT(!started_);
  started_ = true;
  for (ProcessId pid = 0; pid < static_cast<ProcessId>(slots_.size());
       ++pid) {
    if (proxy_.crashed(pid)) continue;
    ClusterContext ctx(*this, pid);
    slots_[static_cast<std::size_t>(pid)]->proc->on_start(ctx);
  }
  for (ProcessId pid = 0; pid < static_cast<ProcessId>(slots_.size());
       ++pid) {
    if (slots_[static_cast<std::size_t>(pid)]->active) {
      threads_.emplace_back([this, pid] { thread_main(pid); });
    }
  }
  timer_thread_ = std::thread([this] { timer_main(); });
  running_.store(true, std::memory_order_release);
}

void Cluster::stop() {
  if (stopping_.exchange(true)) return;
  // Disarm direct delivery first: a send after stop() must behave like the
  // queued path always has (the message sits undelivered forever), not run
  // the destination's step inline on the caller's thread.
  running_.store(false, std::memory_order_release);
  // Consumers wait with no timeout, so every sleeper must be notified;
  // spinners observe stopping_ directly.
  for (auto& slot : slots_) {
    std::lock_guard lock(slot->mu);
    slot->cv.notify_all();
  }
  {
    std::lock_guard lock(timer_mu_);
    timer_cv_.notify_all();
  }
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
  if (timer_thread_.joinable()) timer_thread_.join();
}

void Cluster::acquire_token(Slot& slot) {
  // Much shorter spin than the mailbox wait: a held token usually means a
  // whole step is running (not a few-instruction critical section), and on
  // a saturated core every extra yield here starves the very thread that
  // must finish that step.
  constexpr std::uint32_t kTokenSpin = 32;
  for (std::uint32_t i = 0;
       slot.stepping.exchange(true, std::memory_order_acquire); ++i) {
    if (i < kTokenSpin) {
      spin_pause(i);
    } else {
      // A long-held token means a slow step is running inline on another
      // thread (e.g. a history-carrying delivery); futex-wait instead of
      // yield-cycling the core out from under it.
      slot.stepping.wait(true, std::memory_order_relaxed);
    }
  }
}

void Cluster::release_token(Slot& slot) {
  slot.stepping.store(false, std::memory_order_release);
  slot.stepping.notify_one();
}

/// Releases a stepping token on scope exit, so an exception thrown by a
/// user callback or an automaton step cannot leak the token and wedge the
/// slot (every later acquire_token would futex-wait forever).
class Cluster::TokenGuard {
 public:
  TokenGuard(Cluster& c, Slot& slot) : c_(c), slot_(slot) {}
  ~TokenGuard() { c_.release_token(slot_); }
  TokenGuard(const TokenGuard&) = delete;
  TokenGuard& operator=(const TokenGuard&) = delete;

 private:
  Cluster& c_;
  Slot& slot_;
};

void Cluster::with_context(ProcessId pid,
                           const std::function<void(net::Context&)>& fn) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  acquire_token(slot);
  TokenGuard guard(*this, slot);
  fn(ctx);
}

bool Cluster::drive(ProcessId pid, const std::function<bool()>& done,
                    std::chrono::milliseconds timeout) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    // Resume the drain buffers from a previous partial drive; refill by
    // swapping both lanes only once they are exhausted.
    if (slot.cold_pos >= slot.cold_drain.size() &&
        slot.drain_pos >= slot.drain.size()) {
      slot.cold_drain.clear();
      slot.cold_pos = 0;
      slot.drain.clear();
      slot.drain_pos = 0;
      std::unique_lock lock(slot.mu);
      if (!slot.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return slot.queued_unlocked() != 0 ||
                   stopping_.load(std::memory_order_relaxed);
          })) {
        continue;  // timed out; re-check done() and the deadline
      }
      if (slot.queued_unlocked() == 0) continue;  // stopping
      swap_lanes(slot);
    }
    // done() is re-checked between items, so a partially consumed batch
    // legitimately outlives this call (mid-swap state). The token is
    // uncontended here (passive slots are never direct-delivery targets)
    // but keeps the step-exclusivity invariant uniform.
    {
      acquire_token(slot);
      TokenGuard guard(*this, slot);
      if (slot.cold_pos < slot.cold_drain.size()) {
        deliver_fn(ctx, slot, std::move(slot.cold_drain[slot.cold_pos++]));
      } else {
        if (deliver_msg(ctx, slot,
                        std::move(slot.drain[slot.drain_pos++]))) {
          delivered_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    finish_work_items(1);
  }
  return true;
}

net::Process& Cluster::process(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  return *slots_[static_cast<std::size_t>(pid)]->proc;
}

Time Cluster::now() const {
  return static_cast<Time>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count());
}

net::NetStats Cluster::stats() const {
  net::NetStats total;
  for (const auto& slot : slots_) total += slot->local_stats;
  total.messages_dropped += proxy_.dropped();
  return total;
}

// ---------------------------------------------------------------------------
// Timed closures + quiescence
// ---------------------------------------------------------------------------

void Cluster::post(Time at, ProcessId pid, net::PostFn fn) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  // Already-due closures skip the timer thread entirely: they go straight
  // into the target's cold lane, saving two context switches (post -> timer
  // wake -> enqueue) on the op-chaining hot path. This WEAKENS the old
  // ordering: a bypassing closure can overtake an earlier-scheduled,
  // already-due closure still sitting in the heap, which the single timer
  // thread (strict (at, seq) pops) could never produce. Legal under the
  // asynchronous model -- closure steps have no cross-process ordering
  // guarantee -- but do not rely on timed posts running in `at` order.
  if (at <= now()) {
    enqueue_fn(pid, std::move(fn), /*already_counted=*/false);
    return;
  }
  push_timer(TimedItem{at, 0, pid, std::move(fn)});
}

void Cluster::push_timer(TimedItem item) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(timer_mu_);
    item.seq = timer_seq_++;
    timer_heap_.push_back(std::move(item));
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), &timed_later);
  }
  timer_cv_.notify_one();
}

void Cluster::timer_main() {
  std::unique_lock lock(timer_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const Time due = timer_heap_.front().at;
    if (due > now()) {
      timer_cv_.wait_until(lock,
                           epoch_ + std::chrono::nanoseconds(due));
      continue;  // re-evaluate: an earlier item or stop may have arrived
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), &timed_later);
    TimedItem item = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    lock.unlock();
    if (item.is_msg) {
      enqueue_msg(item.pid, std::move(item.msg), /*already_counted=*/true);
    } else {
      enqueue_fn(item.pid, std::move(item.fn), /*already_counted=*/true);
    }
    lock.lock();
  }
}

template <class Item>
void Cluster::enqueue_item(ProcessId pid, Item item, bool already_counted) {
  constexpr bool kIsMsg = std::is_same_v<Item, MsgEnvelope>;
  if (!already_counted) pending_.fetch_add(1, std::memory_order_acq_rel);
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  // Direct delivery: an idle active destination's step runs right here on
  // the sending thread -- no enqueue, no wakeup. The queued_hint gate is
  // what keeps per-channel FIFO: the hint stays non-zero from the first
  // enqueue until the consumer has dispatched its *entire* swapped batch
  // (it is re-synced under the lock only after run_batch), so a direct
  // delivery can never overtake an earlier message that is still queued
  // or mid-swap. Overtaking traffic on *other* channels is legal under
  // the asynchronous model (per-message delays are arbitrary in the DES).
  if (direct_delivery_ && slot.active &&
      slot.queued_hint.load(std::memory_order_acquire) == 0 &&
      running_.load(std::memory_order_acquire) &&
      !slot.stepping.exchange(true, std::memory_order_acquire)) {
    {
      ClusterContext ctx(*this, pid);
      TokenGuard guard(*this, slot);
      if constexpr (kIsMsg) {
        if (deliver_msg(ctx, slot, std::move(item))) {
          delivered_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        deliver_fn(ctx, slot, std::move(item));
      }
    }
    finish_work_items(1);
    return;
  }
  bool was_empty;
  {
    std::lock_guard lock(slot.mu);
    was_empty = slot.queued_unlocked() == 0;
    if constexpr (kIsMsg) {
      slot.inbox.push_back(std::move(item));
    } else {
      slot.cold_inbox.push_back(std::move(item));
    }
    slot.queued_hint.store(static_cast<std::uint32_t>(slot.queued_unlocked()),
                           std::memory_order_release);
  }
  // Only the empty -> non-empty transition can have a parked (or about to
  // park) consumer: the consumer drains the entire inbox per swap and
  // re-checks emptiness under the lock before waiting.
  if (was_empty) slot.cv.notify_one();
}

void Cluster::enqueue_msg(ProcessId pid, MsgEnvelope env,
                          bool already_counted) {
  if (!proxy_.admit(env.from, pid)) {
    if (already_counted) finish_work_items(1);
    return;
  }
  enqueue_item(pid, std::move(env), already_counted);
}

void Cluster::enqueue_fn(ProcessId pid, net::PostFn fn, bool already_counted) {
  enqueue_item(pid, std::move(fn), already_counted);
}

void Cluster::finish_work_items(std::int64_t n) {
  if (n == 0) return;
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

bool Cluster::run_quiescent(std::chrono::milliseconds timeout) {
  std::unique_lock lock(quiesce_mu_);
  return quiesce_cv_.wait_for(lock, timeout, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

// ---------------------------------------------------------------------------
// Releasing held channels and the send path (net::ChannelProxy's policy)
// ---------------------------------------------------------------------------

// The backlog is re-injected outside the proxy's lock: a concurrent send on
// the just-released channel may overtake it, which is legal under the
// asynchronous model (fresh delays on release, as in the DES).
void Cluster::release(ProcessId from, ProcessId to) {
  proxy_.release(from, to, [this](ProcessId f, ProcessId t,
                                  wire::Message&& msg) {
    enqueue_msg(t, MsgEnvelope{f, std::move(msg)}, /*already_counted=*/false);
  });
}

void Cluster::release_all(ProcessId pid) {
  proxy_.release_all(pid, [this](ProcessId f, ProcessId t,
                                 wire::Message&& msg) {
    enqueue_msg(t, MsgEnvelope{f, std::move(msg)}, /*already_counted=*/false);
  });
}

void Cluster::route(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(from >= 0 && from < static_cast<ProcessId>(slots_.size()));
  RR_ASSERT(to >= 0 && to < static_cast<ProcessId>(slots_.size()));
  // Sender-side accounting and draws: only the thread currently stepping
  // `from` calls route() for it, so its slot counters and link stream need
  // no lock.
  Slot& sender = *slots_[static_cast<std::size_t>(from)];
  sender.local_stats.count_send(
      msg, opts_.account_bytes ? wire::encoded_size(msg) : 0);
  proxy_.send(from, to, std::move(msg), [this] { return now(); },
              sender.link_rng, sender.local_stats,
              [this, from, to](wire::Message&& copy, Time defer) {
                if (defer == 0) {
                  enqueue_msg(to, MsgEnvelope{from, std::move(copy)},
                              /*already_counted=*/false);
                  return;
                }
                // A reordered copy waits on the timer and re-enters the
                // mailbox `defer` later, so fresher traffic on the channel
                // overtakes it; it is pending work until then.
                push_timer(TimedItem{now() + defer, 0, to, {}, true,
                                     MsgEnvelope{from, std::move(copy)}});
              });
}

bool Cluster::deliver_msg(net::Context& ctx, Slot& slot, MsgEnvelope env) {
  // Gray (slow-but-alive): the process takes this step late but correctly.
  const auto gray = slot.gray_ns.load(std::memory_order_relaxed);
  if (gray > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gray));
  if (opts_.max_jitter_us > 0) {
    const auto us = slot.rng.uniform(0, opts_.max_jitter_us);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  // The delivery gate per envelope: a crash can land mid-batch, and
  // everything still undelivered at that point must be dropped.
  if (!proxy_.admit(env.from, ctx.self())) return false;
  slot.local_stats.messages_delivered++;
  if (opts_.reserialize) {
    auto round_tripped = wire::decode(wire::encode(env.msg));
    RR_ASSERT_MSG(round_tripped.has_value(), "codec must round-trip");
    slot.proc->on_message(ctx, env.from, *round_tripped);
  } else {
    slot.proc->on_message(ctx, env.from, env.msg);
  }
  return true;
}

void Cluster::deliver_fn(net::Context& ctx, Slot& slot, net::PostFn fn) {
  const auto gray = slot.gray_ns.load(std::memory_order_relaxed);
  if (gray > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gray));
  if (opts_.max_jitter_us > 0) {
    const auto us = slot.rng.uniform(0, opts_.max_jitter_us);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  // Crashed processes take no steps; posted closures are skipped (as under
  // the DES).
  if (proxy_.crashed(ctx.self())) return;
  fn(ctx);
}

void Cluster::swap_lanes(Slot& slot) {
  // Only the unbatched per-message consumer advances the heads, and it
  // never swaps; swap-drain consumers always see whole lanes.
  RR_ASSERT(slot.inbox_head == 0 && slot.cold_head == 0);
  slot.inbox.swap(slot.drain);
  slot.cold_inbox.swap(slot.cold_drain);
  // queued_hint deliberately stays non-zero: it means "queued OR batch in
  // flight", and is re-synced under the lock only after the whole batch
  // has been dispatched. That is what stops a direct delivery from
  // overtaking the just-swapped batch (per-channel FIFO). Passive slots
  // drained by drive() never re-sync -- harmless, they are never direct
  // targets and have no consumer thread spinning on the hint.
}

void Cluster::run_batch(ProcessId pid, Slot& slot) {
  ClusterContext ctx(*this, pid);
  const auto n = static_cast<std::int64_t>(slot.cold_drain.size() +
                                           slot.drain.size());
  std::uint64_t delivered = 0;
  {
    // One token acquisition serializes the whole batch against direct
    // deliveries landing on this automaton from sender threads.
    acquire_token(slot);
    TokenGuard guard(*this, slot);
    // Cold lane first: timer-driven closures (operation invocations, chaos
    // steps) run before this batch's messages. Cross-lane order is free
    // under the asynchronous model -- message delays are arbitrary -- and
    // each lane keeps its own FIFO.
    for (auto& fn : slot.cold_drain) {
      deliver_fn(ctx, slot, std::move(fn));
    }
    slot.cold_drain.clear();
    for (auto& env : slot.drain) {
      if (deliver_msg(ctx, slot, std::move(env))) ++delivered;
    }
    slot.drain.clear();
  }
  if (delivered > 0) {
    delivered_.fetch_add(delivered, std::memory_order_relaxed);
  }
  finish_work_items(n);
  // The batch is fully dispatched: re-sync the hint to the live queue
  // state, re-enabling direct delivery (see enqueue_item / swap_lanes).
  std::lock_guard lock(slot.mu);
  slot.queued_hint.store(static_cast<std::uint32_t>(slot.queued_unlocked()),
                         std::memory_order_release);
}

void Cluster::thread_main(ProcessId pid) {
  if (!opts_.batched_drain) {
    thread_main_unbatched(pid);
    return;
  }
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Adaptive bounded spin on the lock-free hint before parking: a batch
    // that arrives within the credit is picked up without a condvar round
    // trip. The credit grows only when the spin itself caught the work
    // (work already queued at the first check needed no waiting at all)
    // and halves on every futile park, so it decays to zero on
    // oversubscribed machines where spinning steals the producer's core.
    bool spin_hit = false;
    if (slot.queued_hint.load(std::memory_order_acquire) == 0) {
      const std::uint32_t budget =
          std::min(std::max(slot.spin_credit, kSpinFloor),
                   opts_.max_spin_iters);
      for (std::uint32_t i = 0; i < budget; ++i) {
        if (stopping_.load(std::memory_order_relaxed)) return;
        spin_pause(i);
        if (slot.queued_hint.load(std::memory_order_acquire) != 0) {
          spin_hit = true;
          break;
        }
      }
    }
    {
      std::unique_lock lock(slot.mu);
      if (slot.queued_unlocked() == 0) {
        slot.spin_credit /= 2;
        slot.cv.wait(lock, [&] {
          return slot.queued_unlocked() != 0 ||
                 stopping_.load(std::memory_order_relaxed);
        });
        if (slot.queued_unlocked() == 0) return;  // stopping, nothing queued
      } else if (spin_hit) {
        slot.spin_credit =
            std::min(slot.spin_credit * 2 + 8, opts_.max_spin_iters);
      }
      swap_lanes(slot);
    }
    run_batch(pid, slot);
  }
}

void Cluster::thread_main_unbatched(ProcessId pid) {
  // Reference path: one lock acquisition, one condvar round trip and one
  // pending_ update per envelope. Kept as the denominator of the bench's
  // batching-speedup ratio and for the delivery-semantics parity tests.
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  while (!stopping_.load(std::memory_order_relaxed)) {
    MsgEnvelope env;
    net::PostFn fn;
    bool is_fn = false;
    {
      std::unique_lock lock(slot.mu);
      slot.cv.wait(lock, [&] {
        return slot.queued_unlocked() != 0 ||
               stopping_.load(std::memory_order_relaxed);
      });
      if (slot.queued_unlocked() == 0) return;  // stopping, nothing queued
      if (slot.cold_head < slot.cold_inbox.size()) {
        fn = std::move(slot.cold_inbox[slot.cold_head++]);
        is_fn = true;
      } else {
        env = std::move(slot.inbox[slot.inbox_head++]);
      }
      if (slot.cold_head == slot.cold_inbox.size() &&
          slot.inbox_head == slot.inbox.size()) {
        slot.cold_inbox.clear();
        slot.cold_head = 0;
        slot.inbox.clear();
        slot.inbox_head = 0;
      } else {
        // Compact consumed prefixes even when the queue never fully
        // drains (a deque freed per pop; a vector behind an advancing
        // head would otherwise grow without bound under sustained load).
        // Amortized O(1): each erase halves at most, after >=256 pops.
        if (slot.inbox_head > 256 &&
            slot.inbox_head * 2 >= slot.inbox.size()) {
          slot.inbox.erase(
              slot.inbox.begin(),
              slot.inbox.begin() + static_cast<std::ptrdiff_t>(
                                       slot.inbox_head));
          slot.inbox_head = 0;
        }
        if (slot.cold_head > 256 &&
            slot.cold_head * 2 >= slot.cold_inbox.size()) {
          slot.cold_inbox.erase(
              slot.cold_inbox.begin(),
              slot.cold_inbox.begin() + static_cast<std::ptrdiff_t>(
                                            slot.cold_head));
          slot.cold_head = 0;
        }
      }
      slot.queued_hint.store(
          static_cast<std::uint32_t>(slot.queued_unlocked()),
          std::memory_order_release);
    }
    if (is_fn) {
      deliver_fn(ctx, slot, std::move(fn));
    } else if (deliver_msg(ctx, slot, std::move(env))) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
    }
    finish_work_items(1);
  }
}

}  // namespace rr::runtime
