// The channel fault proxy: one implementation of crash, hold/release and
// link-fault policy for every substrate.
//
// The paper's bounds are proved by adversaries that keep messages to some
// base objects "in transit" and crash others; the gray-failure library adds
// seeded loss, duplication and reordering. ChannelProxy owns all of that.
// The substrates (the DES sim::World, the threaded runtime::Cluster, the
// socket netio::Mesh) keep only transport: they hand every send to send(),
// carry each surviving copy through their own "deliver now" or "deliver
// after `defer`" sink, and call admit() before each delivery step.
//
// The rules, stated once here and in the harness::Backend contract:
//   - Draws. Every send draws loss, then duplication, then one reorder draw
//     per copy that is not held -- whatever the endpoints' crash state --
//     from the Rng the substrate passes: the DES passes its single link
//     stream, threads and net the sender's own stream, so the send path
//     needs no lock.
//   - Hold point: the sender. A held channel buffers copies after loss and
//     duplication, before reorder. release() re-injects the backlog in FIFO
//     order through the substrate's injector, with no reorder draw.
//   - Crash-drop point: delivery. admit() drops a copy, and counts it, when
//     either endpoint has crashed. A send onto a held channel that touches
//     a crashed endpoint is dropped at once, and crash() discards the
//     backlogs adjacent to the crashed process, so release() cannot
//     resurrect them.
//
// Lost, duplicated and reordered copies are counted into the NetStats the
// substrate passes along with the Rng (same single-writer discipline as the
// stream). Drops are counted here, in one atomic, because crash() and the
// delivery gate may run outside any step.
//
// Thread safety: every member may be called from any thread once the
// processes are registered. Held state sits behind one mutex that send()
// takes only while some channel is held; with no rule and no held channel
// a send costs one predictable branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/stats.hpp"
#include "wire/messages.hpp"

namespace rr::net {

class ChannelProxy {
 public:
  /// Registers the next process id (dense, in call order). Call before the
  /// substrate runs steps concurrently.
  void add_process() { crashed_.push_back(0); }
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(crashed_.size());
  }

  /// Installs the link-fault rules. Call before concurrent sends begin.
  void set_link_faults(const LinkFaults& lf) {
    faults_ = lf;
    link_enabled_ = lf.any();
  }

  /// `pid` takes no further steps. Backlogs on held channels adjacent to it
  /// are discarded now and counted as dropped; the channels stay held.
  void crash(ProcessId pid);
  [[nodiscard]] bool crashed(ProcessId pid) const {
    return std::atomic_ref(crashed_[static_cast<std::size_t>(pid)])
               .load(std::memory_order_acquire) != 0;
  }

  /// Holds a channel: copies sent on it are buffered, not delivered.
  void hold(ProcessId from, ProcessId to);
  /// Holds every channel adjacent to `pid` except the unused self-channel.
  void hold_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const;

  /// Releases a channel and re-injects its backlog in FIFO order through
  /// `inject(from, to, wire::Message&&)`, outside the proxy's lock (the
  /// injector may run steps that send). No-op if the channel is not held.
  template <class Inject>
  void release(ProcessId from, ProcessId to, Inject&& inject) {
    std::vector<wire::Message> backlog;
    if (!unhold(from, to, backlog)) return;
    for (auto& msg : backlog) inject(from, to, std::move(msg));
    recycle(std::move(backlog));
  }
  /// Releases every channel adjacent to `pid`: for each peer q in id order,
  /// pid -> q, then q -> pid.
  template <class Inject>
  void release_all(ProcessId pid, Inject&& inject) {
    for (ProcessId q = 0; q < num_processes(); ++q) {
      release(pid, q, inject);
      release(q, pid, inject);
    }
  }

  /// The send path. Applies the draws and the hold point to one message,
  /// then hands each surviving copy to `sink(wire::Message&&, Time defer)`:
  /// defer is 0 to deliver now, or reorder_delay for a reordered copy.
  /// `now()` is read only when a rule or a held channel is active; `rng`
  /// and `st` belong to the caller's draw stream.
  template <class Now, class Sink>
  void send(ProcessId from, ProcessId to, wire::Message&& msg, Now&& now,
            Rng& rng, NetStats& st, Sink&& sink) {
    if (!link_enabled_ && held_count_.load(std::memory_order_acquire) == 0)
        [[likely]] {
      sink(std::move(msg), Time{0});
      return;
    }
    const Time t = now();
    int copies = 1;
    if (link_enabled_) {
      if (fires(faults_.loss, t, from, to, rng)) {
        st.messages_lost++;
        return;
      }
      if (fires(faults_.duplicate, t, from, to, rng)) {
        st.messages_duplicated++;
        copies = 2;
      }
    }
    if (park(from, to, msg, copies)) return;
    for (int c = 1; c < copies; ++c) {
      emit(from, to, wire::Message(msg), t, rng, st, sink);
    }
    emit(from, to, std::move(msg), t, rng, st, sink);
  }

  /// The delivery gate, called before each delivery step: false (and the
  /// copy counted as dropped) when either endpoint has crashed.
  [[nodiscard]] bool admit(ProcessId from, ProcessId to) {
    if (!crashed(to) && !crashed(from)) [[likely]] {
      return true;
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Copies dropped by the gate, by crash purges and by sends onto held
  /// channels with a crashed endpoint. Substrates add it to their totals.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_acquire);
  }

 private:
  [[nodiscard]] static bool fires(const LinkFaultRule& rule, Time t,
                                  ProcessId from, ProcessId to, Rng& rng) {
    return rule.active(t) && rule.covers(from, to) && rng.chance(rule.p);
  }

  /// One copy leaving the hold point: the reorder draw, then the sink.
  template <class Sink>
  void emit(ProcessId from, ProcessId to, wire::Message&& copy, Time t,
            Rng& rng, NetStats& st, Sink& sink) {
    Time defer = 0;
    if (link_enabled_ && fires(faults_.reorder, t, from, to, rng)) {
      st.messages_reordered++;
      defer = faults_.reorder_delay;
    }
    sink(std::move(copy), defer);
  }

  /// The hold point: true when `msg` (all `copies` of it) was buffered on a
  /// held channel, or dropped because the channel touches a crashed
  /// endpoint.
  bool park(ProcessId from, ProcessId to, wire::Message& msg, int copies);
  /// Clears the held flag and moves the backlog out. False if not held.
  bool unhold(ProcessId from, ProcessId to,
              std::vector<wire::Message>& backlog);
  /// Returns a drained backlog's storage to the spare pool.
  void recycle(std::vector<wire::Message>&& backlog);

  /// Marks (from, to) held; `mu_` held.
  void set_held(ProcessId from, ProcessId to);
  [[nodiscard]] static std::uint64_t chan_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  /// Per-process crash flags, read and written through std::atomic_ref.
  /// Grown only by add_process, before concurrent use.
  mutable std::vector<std::uint8_t> crashed_;
  LinkFaults faults_{};
  bool link_enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};

  /// Number of held channels: the lock-free gate in front of `mu_`.
  std::atomic<std::size_t> held_count_{0};
  mutable std::mutex mu_;
  std::unordered_set<std::uint64_t> held_;
  /// FIFO backlogs of held channels that have one. Drained buffers go to
  /// `spare_` with their capacity, so hold/release waves reuse storage.
  std::unordered_map<std::uint64_t, std::vector<wire::Message>> backlogs_;
  std::vector<std::vector<wire::Message>> spare_;
};

}  // namespace rr::net
