// Execution backends: one interface over the discrete-event simulator, the
// threaded cluster and the loopback-TCP socket mesh.
//
// The paper's computation model (Section 2.1, steps <p, M>) is runtime-
// agnostic, and so are the automata (net::Process). A Backend is everything
// a harness needs from the runtime beneath those automata: registering
// processes, scheduling operation invocations as timed closure steps,
// running to quiescence, fault injection (crashes, held channels), a clock,
// and traffic statistics. Deployment, the workloads, chaos injection and
// the history checker are written against this interface, so every
// protocol x fault-plan x workload scenario runs identically under the DES
// (deterministic, virtual time) and under real threads (wall-clock time,
// genuine concurrency) -- one flag flips the substrate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/stats.hpp"

namespace rr::sim {
class World;
}
namespace rr::runtime {
class Cluster;
}
namespace rr::netio {
class Mesh;
}

namespace rr::harness {

enum class BackendKind {
  Sim,      ///< deterministic discrete-event simulator (sim::World)
  Threads,  ///< real threads with mailbox queues (runtime::Cluster)
  Net,      ///< real loopback-TCP sockets + epoll loops (netio::Mesh)
};

[[nodiscard]] const char* to_string(BackendKind k);
[[nodiscard]] std::optional<BackendKind> backend_from_name(
    std::string_view name);

enum class DelayKind { Fixed, Uniform, HeavyTail };

/// Backend-neutral runtime configuration.
struct BackendConfig {
  std::uint64_t seed{1};
  bool reserialize{false};  ///< round-trip every message through the codec

  // DES only: the channel delay model.
  DelayKind delay{DelayKind::Uniform};
  Time delay_lo{1'000};
  Time delay_hi{10'000};
  /// DES only: maintain sim::World's running schedule fingerprint (see
  /// WorldOptions::trace_fingerprint). The threads backend is genuinely
  /// nondeterministic, so it has no equivalent.
  bool trace_fingerprint{false};

  // Threads only: artificial delivery jitter (microseconds) and the bound
  // on one run-to-quiescence (a wait-free run only exceeds it on livelock).
  std::uint32_t max_jitter_us{0};
  std::uint64_t run_timeout_ms{120'000};
  /// Threads only: swap-drain mailbox batching (default). False selects the
  /// per-message reference path -- one lock/condvar round trip per envelope
  /// -- used by the batching-speedup bench ratio and the delivery-semantics
  /// parity tests. Semantics are identical either way.
  bool threads_batched_drain{true};
  /// Threads only: cap on the consumer's adaptive pre-park spin
  /// (iterations; 0 parks immediately).
  std::uint32_t threads_max_spin{256};
  /// Threads + net: bounded run deadline (milliseconds; 0 = disabled).
  /// With a deadline, a run() that fails to quiesce STOPS the substrate and
  /// reports through Backend::timed_out() instead of aborting the process
  /// -- so a sweep cell whose fault plan stalls its quorums (e.g. the
  /// overload template) degrades to a liveness-failure verdict. Without a
  /// deadline, non-quiescence stays fatal after run_timeout_ms.
  std::uint64_t max_wall_time_ms{0};

  /// Net only: per-frame payload cap the streaming decoder enforces (a
  /// larger length prefix is hostile, not a big message).
  std::uint32_t net_max_frame_bytes{16u << 20};
  /// Net only: a frame (or handshake) stuck mid-read longer than this is a
  /// truncating peer -- counted, connection dropped, reconnect takes over.
  std::uint64_t net_frame_timeout_ms{5'000};
};

/// The runtime contract every execution substrate must honor. A new backend
/// implements this interface, gets a BackendKind entry, and the whole
/// harness surface -- Deployment, workloads, chaos, the history checker,
/// the cross-backend equivalence suite -- runs on it unchanged. The
/// reference semantics are the DES (sim::World); the invariants a backend
/// must keep are spelled out per member below, and
/// tests/test_cross_backend.cpp checks them end-to-end per protocol.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registers a process; ids MUST be assigned densely in registration
  /// order (0, 1, 2, ...) -- ShardLayout and Topology do pid arithmetic on
  /// that assumption. Called only before start().
  virtual ProcessId add_process(std::unique_ptr<net::Process> p) = 0;

  /// Calls on_start on every process, in id order; threads spin up here.
  /// Called exactly once, after all add_process calls.
  virtual void start() = 0;

  /// Schedules `fn` to run as one atomic step of process `pid` at time `at`
  /// on the backend clock (times in the past run as soon as possible).
  /// The closure must run with the same exclusivity as a message delivery:
  /// no other step of `pid` may be concurrent with it. Closures posted to a
  /// crashed process are silently skipped. Closures that fit net::PostFn's
  /// inline buffer must be stored without heap allocation.
  virtual void post(Time at, ProcessId pid, net::PostFn fn) = 0;

  /// Runs until no work remains: no undelivered messages, no pending posted
  /// closures, no step in flight. Messages buffered on held channels do NOT
  /// count as work (they may stay in transit forever, as in the proofs).
  /// Returns events executed / messages delivered by this run. Wait-free
  /// protocol runs must quiesce; a backend may bound the wait and abort on
  /// livelock.
  virtual std::uint64_t run() = 0;

  /// Current time on the backend clock (virtual ns for the DES, wall-clock
  /// ns since construction for threads). Monotone; operation latencies are
  /// differences of this clock, so its unit defines the latency unit.
  [[nodiscard]] virtual Time now() const = 0;

  // Fault injection. Every backend applies it through one net::ChannelProxy,
  // so these rules hold on each by construction:
  //   - Draws: every send draws loss, then duplication, then one reorder
  //     draw per copy that is not held, whatever the endpoints' crash
  //     state. The DES draws from its one link stream, threads and net from
  //     the sender's own stream.
  //   - Hold point: the sender. hold(from, to) buffers copies after loss
  //     and duplication, before reorder ("messages remain in transit");
  //     idempotent. release(from, to) re-injects the backlog in FIFO order
  //     with fresh delays from the current time and no reorder draw; no-op
  //     if not held.
  //   - Crash-drop point: delivery. After crash(p), p takes no further
  //     steps, ever, and a copy to or from p is dropped (counted in
  //     NetStats) when it would be delivered. Backlogs on held channels
  //     adjacent to p are discarded at once, as is a send onto such a
  //     channel, so release() cannot resurrect them.
  //   - hold_all/release_all: every channel adjacent to pid, both
  //     directions, excluding the never-used self-channel pid -> pid;
  //     release_all goes peer by peer in id order, pid -> q then q -> pid.
  //   - Accounting: once every channel is released and run() has returned,
  //     sent + duplicated == delivered + dropped + lost.
  virtual void crash(ProcessId pid) = 0;
  virtual void hold(ProcessId from, ProcessId to) = 0;
  virtual void release(ProcessId from, ProcessId to) = 0;
  virtual void hold_all(ProcessId pid) = 0;
  virtual void release_all(ProcessId pid) = 0;

  // Gray-failure library (see net::LinkFaults and docs/SCENARIO_DSL.md).
  // Every substrate implements link faults and gray processes with shared
  // NetStats accounting; clock skew is meaningful only under the DES.
  //   - set_link_faults: seeded per-channel loss / duplication / reorder.
  //     Call after the last add_process and before start().
  //   - set_gray(p, factor): p stays correct but slow -- the DES multiplies
  //     delays on p's channels, threads and net inject (factor-1) x 20us of
  //     stepping delay. factor <= 1 clears. Callable mid-run via post().
  //   - set_clock_skew(p, off): p's Context::now() reads shifted by `off`.
  //     Returns false where unsupported (threads: wall clocks don't lie).
  virtual void set_link_faults(const net::LinkFaults& lf) = 0;
  virtual void set_gray(ProcessId pid, double factor) = 0;
  virtual bool set_clock_skew(ProcessId pid, std::int64_t offset) {
    (void)pid;
    (void)offset;
    return false;
  }

  /// True when a bounded run (BackendConfig::max_wall_time_ms) gave up
  /// waiting for quiescence: a liveness failure, not a crash. The backend
  /// is stopped afterwards, so histories and stats are safe to read.
  [[nodiscard]] virtual bool timed_out() const { return false; }

  /// Number of registered processes (dense ids 0..n-1).
  [[nodiscard]] virtual int num_processes() const = 0;

  /// Traffic statistics. Byte counts must use wire::encoded_size() (the
  /// shared counting visitor) so cross-backend byte numbers are comparable.
  /// Only exact after run() has returned (threads count lock-free per
  /// slot).
  [[nodiscard]] virtual net::NetStats stats() const = 0;
  [[nodiscard]] virtual net::Process& process(ProcessId pid) = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Escape hatches for substrate-specific tests and tools; null when the
  /// backend is not of that kind.
  [[nodiscard]] virtual sim::World* world() { return nullptr; }
  [[nodiscard]] virtual runtime::Cluster* cluster() { return nullptr; }
  [[nodiscard]] virtual netio::Mesh* mesh() { return nullptr; }
};

/// One row of the backend registry: everything the harness needs to offer a
/// substrate -- its kind, canonical name, accepted aliases, a one-line
/// summary for CLI help text, and a factory. Mirrors the protocol-traits
/// registry: adding a backend is one entry in backend.cpp, and name
/// parsing, to_string and make_backend all follow automatically.
struct BackendTraits {
  BackendKind kind;
  const char* name;     ///< canonical name (to_string, JSON keys)
  const char* alias;    ///< one accepted alternate spelling (or nullptr)
  const char* summary;  ///< one-liner for --help text
  std::unique_ptr<Backend> (*make)(const BackendConfig& cfg);
};

/// The full table, in BackendKind declaration order.
[[nodiscard]] const std::vector<BackendTraits>& backend_registry();

/// "des|threads|net" -- the registry's canonical names, for error messages.
[[nodiscard]] std::string backend_names();

/// Builds a backend of `kind` from the neutral configuration.
[[nodiscard]] std::unique_ptr<Backend> make_backend(BackendKind kind,
                                                    const BackendConfig& cfg);

}  // namespace rr::harness
