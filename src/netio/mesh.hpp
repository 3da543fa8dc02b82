// A real-network runtime for net::Process automata: one OS thread and one
// epoll loop per process, a full-duplex loopback-TCP connection per process
// pair, messages framed as length-prefixed wire::encode() bytes
// (wire::FrameDecoder reassembles partial reads).
//
// Crash, hold/release and link faults are net::ChannelProxy's policy, the
// same object the DES and the cluster use; the mesh supplies transport:
//
//   crash          the node stops stepping forever and blackholes: it keeps
//                  draining adjacent sockets and the proxy's delivery gate
//                  DROPS every frame (counted), so in-transit accounting
//                  stays exact -- a real dead machine's kernel would RST and
//                  make the in-flight count unknowable.
//   hold/release   the sender's proxy buffers copies of a held channel
//                  before they reach the socket ("messages remain in
//                  transit"); release writes the backlog FIFO through the
//                  sender's deferred-write path. Crash discards adjacent
//                  backlogs.
//   link faults    seeded loss/duplication/reorder drawn sender-side from
//                  the sender's own stream; a reordered frame's write is
//                  deferred by reorder_delay on the sender's timer heap.
//   gray           per-frame delivery delay on the gray node (slow but
//                  correct), mirroring the cluster's per-step injection.
//
// The transport itself degrades gracefully instead of trusting the peer:
// non-blocking connect/accept with bounded exponential backoff + jitter
// (netio/backoff.hpp), per-frame read timeouts, and corrupt frames counted
// and dropped (a poisoned stream closes the connection and reconnects) --
// never fatal. Liveness failures surface through run_quiescent() returning
// false, which the harness maps to Backend::timed_out().
//
// Quiescence uses the cluster's scheme: an atomic pending-work counter
// (+1 per copy handed to the transport or posted closure, -1 after delivery
// or drop) and a condvar. Copies buffered on held channels are NOT work.
// One caveat is inherent to real sockets: bytes already handed to a
// kernel that loses the connection cannot be tracked, so the test-only
// sever() hook must be called while quiescent.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/proxy.hpp"
#include "net/stats.hpp"
#include "netio/backoff.hpp"
#include "netio/socket.hpp"
#include "wire/frame.hpp"

namespace rr::netio {

struct MeshOptions {
  std::uint64_t seed{1};
  /// Artificial per-delivery jitter (microseconds), as in the cluster.
  std::uint32_t max_jitter_us{0};
  bool account_bytes{true};
  /// Frame payload cap handed to every FrameDecoder.
  std::uint32_t max_frame_bytes{wire::kMaxFramePayload};
  /// A frame stuck mid-read (or a handshake stuck mid-hello) longer than
  /// this is a truncating peer: counted, connection dropped, reconnect
  /// machinery takes over.
  std::uint64_t frame_timeout_ms{5'000};
  BackoffPolicy backoff{};
};

/// Transport robustness counters (exact after the mesh has quiesced; safe to
/// read at any time).
struct TransportStats {
  std::uint64_t connects{0};           ///< completed hello handshakes
  std::uint64_t connect_attempts{0};   ///< connect() initiations
  std::uint64_t corrupt_frames{0};     ///< bad magic/oversized/bad payload
  std::uint64_t partial_timeouts{0};   ///< frame stuck mid-read past deadline
  std::uint64_t handshake_failures{0};
};

class Mesh {
 public:
  explicit Mesh(const MeshOptions& opts);
  ~Mesh();
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Registration (before start() only); ids are dense in call order.
  ProcessId add(std::unique_ptr<net::Process> p);
  void set_link_faults(const net::LinkFaults& lf);
  void set_gray(ProcessId pid, std::uint64_t step_delay_ns);

  /// Binds every node's listener, runs on_start in id order (sends buffer
  /// until the mesh connects), then spins up the node threads; the socket
  /// mesh is established asynchronously by the reconnect machinery.
  void start();
  void stop();

  void post(Time at, ProcessId pid, net::PostFn fn);
  bool run_quiescent(std::chrono::milliseconds timeout);
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

  void crash(ProcessId pid) { proxy_.crash(pid); }
  [[nodiscard]] bool crashed(ProcessId pid) const {
    return proxy_.crashed(pid);
  }
  void hold(ProcessId from, ProcessId to) { proxy_.hold(from, to); }
  void hold_all(ProcessId pid) { proxy_.hold_all(pid); }
  void release(ProcessId from, ProcessId to);
  void release_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const {
    return proxy_.held(from, to);
  }

  [[nodiscard]] Time now() const;
  [[nodiscard]] net::NetStats stats() const;
  [[nodiscard]] TransportStats transport() const;
  [[nodiscard]] net::Process& process(ProcessId pid);
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(nodes_.size());
  }

  /// Test hook: asynchronously closes the a<->b connection from a's side;
  /// b sees EOF and the initiating end re-establishes it with backoff.
  /// Call only while quiescent -- bytes already in the kernel when a socket
  /// closes are lost, and the pending-work counter cannot know about them.
  void sever(ProcessId a, ProcessId b);

 private:
  /// One end of a connection to a peer, owned by the node's thread.
  struct Peer {
    Fd fd;
    bool connecting{false};  ///< non-blocking connect awaiting EPOLLOUT
    bool ready{false};       ///< hello done, frames flowing
    bool want_write{false};  ///< EPOLLOUT currently registered
    wire::FrameDecoder dec{};
    /// Corrupt frames of `dec` already added to the node's published total.
    std::uint64_t corrupt_seen{0};
    Time partial_since{0};  ///< first observation of a mid-frame stall
    /// Outgoing bytes, kept frame-aligned so a reconnect can rewind to the
    /// first incompletely-written frame (the peer resets its decoder on
    /// disconnect, so a resent prefix never splices into a stale partial).
    std::string out;
    std::size_t out_head{0};         ///< handed to the kernel
    std::size_t out_frame_start{0};  ///< first frame not fully written
    std::deque<std::uint32_t> out_sizes;  ///< frames from out_frame_start on
    std::string hello_out;                ///< unsent hello bytes
    std::uint32_t attempts{0};            ///< consecutive failed connects
    Time next_attempt{0};
  };

  struct TimedItem {
    Time at{0};
    std::uint64_t seq{0};
    bool is_write{false};
    net::PostFn fn;     ///< !is_write: a step of this node
    ProcessId to{-1};   ///< is_write: peer to write to
    /// is_write: a reorder-deferred copy, a released backlog copy or a
    /// self-send
    wire::Message msg;
  };

  /// Heap order for Node::heap (min-heap on (at, seq)).
  [[nodiscard]] static bool timed_later(const TimedItem& a,
                                        const TimedItem& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  struct PendingConn {
    Fd fd;
    Time since{0};
    std::string hello;
  };

  struct Node {
    ProcessId pid{-1};
    std::unique_ptr<net::Process> proc;
    Rng rng;
    Rng link_rng;
    /// Transport-only stream (backoff jitter): kept apart from `rng` so
    /// reconnect timing never perturbs the automaton's deterministic draws.
    Rng net_rng;
    std::atomic<std::uint64_t> gray_ns{0};
    /// Written only by the thread stepping this node (sender counters at
    /// route(), receiver counters at delivery), read after quiescence.
    net::NetStats local_stats;

    Fd listener;
    std::uint16_t port{0};
    Fd epoll;
    Fd wake;
    std::vector<Peer> peers;                    ///< indexed by peer pid
    std::unordered_map<int, ProcessId> fd_peer;  ///< owned peer/connect fds
    std::unordered_map<int, PendingConn> pending;  ///< accepted, pre-hello

    std::mutex sever_mu;
    std::vector<ProcessId> sever_reqs;

    std::mutex timer_mu;
    std::vector<TimedItem> heap;
    std::uint64_t seq{0};

    // Transport counters: written only by the node's thread (bump), read
    // by transport() from any thread.
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> connect_attempts{0};
    std::atomic<std::uint64_t> partial_timeouts{0};
    std::atomic<std::uint64_t> handshake_failures{0};
    std::atomic<std::uint64_t> corrupt_frames{0};  ///< over every peer's dec

    std::thread thread;
  };

  class MeshContext;
  friend class MeshContext;

  Node& node(ProcessId pid) { return *nodes_[static_cast<std::size_t>(pid)]; }
  const Node& node(ProcessId pid) const {
    return *nodes_[static_cast<std::size_t>(pid)];
  }

  // Send path (runs on the thread currently stepping `from`).
  void route(ProcessId from, ProcessId to, wire::Message msg);
  void send_frame(Node& n, ProcessId to, std::string_view frame);
  void append_frame(Node& n, ProcessId to, std::string_view frame);

  // Node event loop.
  void node_main(Node& n);
  void wake(Node& n);
  Time next_deadline(Node& n);
  void handle_event(Node& n, int fd, std::uint32_t events);
  void accept_ready(Node& n);
  void handshake_readable(Node& n, int fd);
  void peer_event(Node& n, ProcessId peer, std::uint32_t events);
  void read_peer(Node& n, ProcessId peer);
  void flush_peer(Node& n, ProcessId peer);
  void update_write_interest(Node& n, ProcessId peer);
  void on_connected(Node& n, ProcessId peer);
  void drop_conn(Node& n, ProcessId peer, bool reconnect_now);
  void attempt_connect(Node& n, ProcessId peer);
  void service_reconnects(Node& n);
  void service_timeouts(Node& n);
  void service_severs(Node& n);
  void fire_timers(Node& n);

  // Receive path (runs on the destination node's thread).
  void deliver_msg_step(Node& n, ProcessId from, const wire::Message& msg);
  void deliver_fn_step(Node& n, net::PostFn fn);
  void fault_sleep(Node& n);

  /// Counts one timed item as pending work, pushes it on `n`'s timer heap
  /// and wakes `n`.
  void push_timer(Node& n, TimedItem item);
  void add_pending(std::int64_t n);
  void finish_work(std::int64_t n);

  void epoll_add(Node& n, int fd, std::uint32_t events);
  void epoll_mod(Node& n, int fd, std::uint32_t events);
  void epoll_del(Node& n, int fd);

  MeshOptions opts_;
  Rng seeder_;
  Time frame_timeout_ns_{0};
  std::vector<std::unique_ptr<Node>> nodes_;
  bool started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point epoch_;

  // Quiescence accounting (the cluster's scheme).
  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  std::atomic<std::uint64_t> delivered_{0};

  /// Crash, hold and link-fault policy; its send path is one branch when
  /// no rule or held channel is active.
  net::ChannelProxy proxy_;
};

}  // namespace rr::netio
