#include "netio/mesh.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/assert.hpp"
#include "wire/codec.hpp"

namespace rr::netio {

namespace {

/// First bytes on every fresh connection: the initiator identifies itself
/// ("HELO" + pid, both u32 little-endian); the acceptor's identity is
/// implied by the listener the initiator dialed.
constexpr std::uint32_t kHelloMagic = 0x4f4c4548u;
constexpr std::size_t kHelloBytes = 8;
constexpr Time kNoDeadline = ~Time{0};

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

/// Adds to a counter only its owning node thread writes (a plain load and
/// store, no read-modify-write); other threads may read it at any time.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t d = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + d,
                std::memory_order_relaxed);
}

}  // namespace

class Mesh::MeshContext final : public net::Context {
 public:
  MeshContext(Mesh& m, ProcessId self) : m_(m), self_(self) {}
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] Time now() const override { return m_.now(); }
  void send(ProcessId to, wire::Message msg) override {
    m_.route(self_, to, std::move(msg));
  }
  [[nodiscard]] Rng& rng() override { return m_.node(self_).rng; }

 private:
  Mesh& m_;
  ProcessId self_;
};

Mesh::Mesh(const MeshOptions& opts)
    : opts_(opts),
      seeder_(opts.seed),
      frame_timeout_ns_(opts.frame_timeout_ms * 1'000'000ull),
      epoch_(std::chrono::steady_clock::now()) {}

Mesh::~Mesh() { stop(); }

ProcessId Mesh::add(std::unique_ptr<net::Process> p) {
  RR_ASSERT(!started_);
  RR_ASSERT(p != nullptr);
  auto n = std::make_unique<Node>();
  n->pid = static_cast<ProcessId>(nodes_.size());
  n->proc = std::move(p);
  n->rng = seeder_.fork();
  n->net_rng = Rng(mix64(opts_.seed ^ 0x6e65'7472'7269'6f00ULL) +
                   static_cast<std::uint64_t>(n->pid));
  nodes_.push_back(std::move(n));
  proxy_.add_process();
  return nodes_.back()->pid;
}

void Mesh::set_link_faults(const net::LinkFaults& lf) {
  RR_ASSERT(!started_);
  proxy_.set_link_faults(lf);
  // Same forked per-sender stream construction as the cluster.
  Rng seeder(mix64(lf.seed ^ 0x11fa'0175'0001ULL));
  for (auto& n : nodes_) n->link_rng = seeder.fork();
}

void Mesh::set_gray(ProcessId pid, std::uint64_t step_delay_ns) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(nodes_.size()));
  node(pid).gray_ns.store(step_delay_ns, std::memory_order_relaxed);
}

Time Mesh::now() const {
  return static_cast<Time>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count());
}

net::Process& Mesh::process(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(nodes_.size()));
  return *node(pid).proc;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void Mesh::start() {
  RR_ASSERT(!started_);
  started_ = true;
  for (auto& np : nodes_) {
    Node& n = *np;
    n.epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    RR_ASSERT_MSG(n.epoll.valid(), "net backend: epoll_create1 failed");
    n.wake = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    RR_ASSERT_MSG(n.wake.valid(), "net backend: eventfd failed");
    n.listener = listen_loopback(n.port);
    RR_ASSERT_MSG(n.listener.valid(),
                  "net backend: cannot bind a loopback listener");
    epoll_add(n, n.wake.get(), EPOLLIN);
    epoll_add(n, n.listener.get(), EPOLLIN);
    n.peers.resize(nodes_.size());
  }
  // on_start in id order, single-threaded, before any connection exists:
  // sends land in the frame-aligned out buffers and flush once the
  // reconnect machinery (attempt 0 = immediate) brings the mesh up.
  for (auto& np : nodes_) {
    Node& n = *np;
    if (proxy_.crashed(n.pid)) continue;
    MeshContext ctx(*this, n.pid);
    n.proc->on_start(ctx);
  }
  running_.store(true, std::memory_order_release);
  for (auto& np : nodes_) {
    Node* n = np.get();
    n->thread = std::thread([this, n] { node_main(*n); });
  }
}

void Mesh::stop() {
  if (stopping_.exchange(true)) return;
  running_.store(false, std::memory_order_release);
  for (auto& np : nodes_) {
    if (np->thread.joinable()) wake(*np);
  }
  for (auto& np : nodes_) {
    if (np->thread.joinable()) np->thread.join();
  }
}

// ---------------------------------------------------------------------------
// Quiescence accounting
// ---------------------------------------------------------------------------

void Mesh::add_pending(std::int64_t n) {
  pending_.fetch_add(n, std::memory_order_acq_rel);
}

void Mesh::finish_work(std::int64_t n) {
  if (n == 0) return;
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

bool Mesh::run_quiescent(std::chrono::milliseconds timeout) {
  std::unique_lock lock(quiesce_mu_);
  return quiesce_cv_.wait_for(lock, timeout, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void Mesh::post(Time at, ProcessId pid, net::PostFn fn) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(nodes_.size()));
  push_timer(node(pid), TimedItem{at, 0, false, std::move(fn), -1, {}});
}

void Mesh::push_timer(Node& n, TimedItem item) {
  add_pending(1);
  {
    std::lock_guard lock(n.timer_mu);
    item.seq = n.seq++;
    n.heap.push_back(std::move(item));
    std::push_heap(n.heap.begin(), n.heap.end(), &timed_later);
  }
  wake(n);
}

// ---------------------------------------------------------------------------
// Releasing held channels (net::ChannelProxy's policy)
// ---------------------------------------------------------------------------

// A released backlog crosses the socket now, FIFO, through the sender's
// deferred-write path. A concurrent send on the just-released channel may
// overtake it -- legal under the asynchronous model (fresh delays on
// release, as under the DES).
void Mesh::release(ProcessId from, ProcessId to) {
  proxy_.release(from, to, [this](ProcessId f, ProcessId t,
                                  wire::Message&& msg) {
    push_timer(node(f), TimedItem{0, 0, true, {}, t, std::move(msg)});
  });
}

void Mesh::release_all(ProcessId pid) {
  proxy_.release_all(pid, [this](ProcessId f, ProcessId t,
                                 wire::Message&& msg) {
    push_timer(node(f), TimedItem{0, 0, true, {}, t, std::move(msg)});
  });
}

void Mesh::sever(ProcessId a, ProcessId b) {
  RR_ASSERT(a >= 0 && a < static_cast<ProcessId>(nodes_.size()));
  RR_ASSERT(b >= 0 && b < static_cast<ProcessId>(nodes_.size()));
  RR_ASSERT(a != b);
  Node& n = node(a);
  {
    std::lock_guard lock(n.sever_mu);
    n.sever_reqs.push_back(b);
  }
  wake(n);
}

// ---------------------------------------------------------------------------
// Send path (runs on the thread currently stepping `from`)
// ---------------------------------------------------------------------------

void Mesh::route(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(from >= 0 && from < static_cast<ProcessId>(nodes_.size()));
  RR_ASSERT(to >= 0 && to < static_cast<ProcessId>(nodes_.size()));
  Node& sender = node(from);
  // The frame payload doubles as the byte accounting: encode() length ==
  // encoded_size() (pinned by the codec tests), so net byte counts stay
  // comparable with the DES and the cluster.
  const std::string payload = wire::encode(msg);
  sender.local_stats.count_send(msg, opts_.account_bytes ? payload.size() : 0);
  // Draws come from the sender's stream, which only the thread stepping
  // `from` touches. Copies written now reuse one frame; reordered copies and
  // self-sends wait on the sender's timer heap.
  std::string frame;
  proxy_.send(from, to, std::move(msg), [this] { return now(); },
              sender.link_rng, sender.local_stats,
              [&](wire::Message&& copy, Time defer) {
                if (defer != 0 || to == from) {
                  push_timer(sender, TimedItem{now() + defer, 0, true, {}, to,
                                               std::move(copy)});
                  return;
                }
                if (frame.empty()) frame = wire::wrap_frame(payload);
                add_pending(1);
                send_frame(sender, to, frame);
              });
}

void Mesh::send_frame(Node& n, ProcessId to, std::string_view frame) {
  append_frame(n, to, frame);
  Peer& p = n.peers[static_cast<std::size_t>(to)];
  if (p.ready && p.fd.valid()) flush_peer(n, to);
}

void Mesh::append_frame(Node& n, ProcessId to, std::string_view frame) {
  Peer& p = n.peers[static_cast<std::size_t>(to)];
  p.out.append(frame.data(), frame.size());
  p.out_sizes.push_back(static_cast<std::uint32_t>(frame.size()));
}

// ---------------------------------------------------------------------------
// Receive path (runs on the destination node's thread)
// ---------------------------------------------------------------------------

void Mesh::fault_sleep(Node& n) {
  // Gray (slow-but-alive): every frame/step on the gray node lands late
  // but correct -- the per-frame delay the ISSUE asks of set_gray.
  const auto gray = n.gray_ns.load(std::memory_order_relaxed);
  if (gray > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gray));
  if (opts_.max_jitter_us > 0) {
    const auto us = n.rng.uniform(0, opts_.max_jitter_us);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

void Mesh::deliver_msg_step(Node& n, ProcessId from, const wire::Message& msg) {
  fault_sleep(n);
  // Crash is a blackhole at the delivery gate: the node keeps draining its
  // sockets so in-transit accounting stays exact, and drops everything here.
  if (!proxy_.admit(from, n.pid)) {
    finish_work(1);
    return;
  }
  n.local_stats.messages_delivered++;
  delivered_.fetch_add(1, std::memory_order_relaxed);
  MeshContext ctx(*this, n.pid);
  n.proc->on_message(ctx, from, msg);
  finish_work(1);
}

void Mesh::deliver_fn_step(Node& n, net::PostFn fn) {
  fault_sleep(n);
  if (proxy_.crashed(n.pid)) {
    finish_work(1);  // crashed processes take no steps; the closure is dropped
    return;
  }
  MeshContext ctx(*this, n.pid);
  fn(ctx);
  finish_work(1);
}

// ---------------------------------------------------------------------------
// Node event loop
// ---------------------------------------------------------------------------

void Mesh::wake(Node& n) {
  if (!n.wake.valid()) return;  // pre-start: the first loop pass drains
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r =
      ::write(n.wake.get(), &one, sizeof(one));
}

Time Mesh::next_deadline(Node& n) {
  {
    std::lock_guard lock(n.sever_mu);
    if (!n.sever_reqs.empty()) return 0;  // pending severs: don't sleep
  }
  Time d = kNoDeadline;
  {
    std::lock_guard lock(n.timer_mu);
    if (!n.heap.empty()) d = std::min(d, n.heap.front().at);
  }
  for (ProcessId q = 0; q < static_cast<ProcessId>(n.peers.size()); ++q) {
    const Peer& p = n.peers[static_cast<std::size_t>(q)];
    if (q < n.pid && !p.fd.valid() && !p.connecting) {
      d = std::min(d, p.next_attempt);
    }
    if (p.ready && p.partial_since != 0) {
      d = std::min(d, p.partial_since + frame_timeout_ns_);
    }
  }
  for (const auto& [fd, pc] : n.pending) {
    (void)fd;
    d = std::min(d, pc.since + frame_timeout_ns_);
  }
  return d;
}

void Mesh::node_main(Node& n) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Time deadline = next_deadline(n);
    int timeout_ms = 100;
    if (deadline != kNoDeadline) {
      const Time t = now();
      timeout_ms = deadline <= t
                       ? 0
                       : static_cast<int>(std::min<Time>(
                             100, (deadline - t + 999'999) / 1'000'000));
    }
    epoll_event evs[64];
    const int k = ::epoll_wait(n.epoll.get(), evs, 64, timeout_ms);
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (k < 0) {
      if (errno == EINTR) continue;
      return;  // epoll itself failed: nothing sane left to do on this node
    }
    for (int i = 0; i < k; ++i) {
      handle_event(n, evs[i].data.fd, evs[i].events);
    }
    service_severs(n);
    fire_timers(n);
    service_reconnects(n);
    service_timeouts(n);
  }
}

void Mesh::handle_event(Node& n, int fd, std::uint32_t events) {
  if (fd == n.wake.get()) {
    std::uint64_t v = 0;
    [[maybe_unused]] const ssize_t r = ::read(fd, &v, sizeof(v));
    return;
  }
  if (fd == n.listener.get()) {
    accept_ready(n);
    return;
  }
  if (const auto it = n.fd_peer.find(fd); it != n.fd_peer.end()) {
    peer_event(n, it->second, events);
    return;
  }
  if (n.pending.count(fd) != 0) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      bump(n.handshake_failures);
      epoll_del(n, fd);
      n.pending.erase(fd);
      return;
    }
    handshake_readable(n, fd);
    return;
  }
  // Stale event for an fd closed earlier in this batch: ignore.
}

void Mesh::accept_ready(Node& n) {
  for (;;) {
    const int cfd =
        ::accept4(n.listener.get(), nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: epoll will re-arm
    }
    set_nodelay(cfd);
    epoll_add(n, cfd, EPOLLIN);
    n.pending.emplace(cfd, PendingConn{Fd(cfd), now(), {}});
  }
}

void Mesh::handshake_readable(Node& n, int fd) {
  const auto it = n.pending.find(fd);
  if (it == n.pending.end()) return;
  PendingConn& pc = it->second;
  char buf[kHelloBytes];
  while (pc.hello.size() < kHelloBytes) {
    const ssize_t r = ::read(fd, buf, kHelloBytes - pc.hello.size());
    if (r > 0) {
      pc.hello.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r < 0 && errno == EINTR) continue;
    // EOF or a hard error before the hello completed.
    bump(n.handshake_failures);
    epoll_del(n, fd);
    n.pending.erase(it);
    return;
  }
  const std::uint32_t magic = get_u32(pc.hello.data());
  const std::uint32_t pid32 = get_u32(pc.hello.data() + 4);
  Fd owned = std::move(pc.fd);
  n.pending.erase(it);
  if (magic != kHelloMagic ||
      pid32 >= static_cast<std::uint32_t>(nodes_.size()) ||
      static_cast<ProcessId>(pid32) == n.pid) {
    // A peer that can't even say hello correctly is hostile or broken:
    // count and close, never trust.
    bump(n.handshake_failures);
    epoll_del(n, fd);
    return;
  }
  const auto peer = static_cast<ProcessId>(pid32);
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  if (p.fd.valid()) drop_conn(n, peer, false);  // newest connection wins
  const int raw = owned.get();
  p.fd = std::move(owned);
  n.fd_peer[raw] = peer;
  p.connecting = false;
  p.ready = true;
  p.attempts = 0;
  p.partial_since = 0;
  p.dec.reset();
  p.out_head = p.out_frame_start;  // resend the partially-written frame
  bump(n.connects);
  p.want_write = p.out_head < p.out.size();
  epoll_mod(n, raw, EPOLLIN | (p.want_write ? EPOLLOUT : 0u));
  if (p.want_write) flush_peer(n, peer);
}

void Mesh::peer_event(Node& n, ProcessId peer, std::uint32_t events) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  if (!p.fd.valid()) return;
  if (p.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      const int err = pending_connect_error(p.fd.get());
      if (err == 0) {
        on_connected(n, peer);
      } else {
        n.fd_peer.erase(p.fd.get());
        epoll_del(n, p.fd.get());
        p.fd.reset();
        p.connecting = false;
        p.attempts++;
        p.next_attempt =
            now() + backoff_delay_ns(opts_.backoff, p.attempts, n.net_rng);
      }
    }
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    drop_conn(n, peer, true);
    return;
  }
  if ((events & EPOLLIN) != 0) read_peer(n, peer);
  if (!p.fd.valid()) return;  // the read dropped the connection
  if ((events & EPOLLOUT) != 0) flush_peer(n, peer);
}

void Mesh::on_connected(Node& n, ProcessId peer) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  p.connecting = false;
  p.ready = true;
  p.attempts = 0;
  p.partial_since = 0;
  p.dec.reset();
  p.out_head = p.out_frame_start;  // resend the partially-written frame
  bump(n.connects);
  std::string hello;
  put_u32(hello, kHelloMagic);
  put_u32(hello, static_cast<std::uint32_t>(n.pid));
  p.hello_out = std::move(hello);
  p.want_write = true;
  epoll_mod(n, p.fd.get(), EPOLLIN | EPOLLOUT);
  flush_peer(n, peer);
}

void Mesh::read_peer(Node& n, ProcessId peer) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  char buf[65536];
  const auto sink = [this, &n, peer](wire::Message&& m) {
    deliver_msg_step(n, peer, m);
  };
  for (;;) {
    const ssize_t r = ::read(p.fd.get(), buf, sizeof(buf));
    if (r > 0) {
      const bool intact = p.dec.feed(buf, static_cast<std::size_t>(r), sink);
      // Publish the decoder's corrupt-frame count for transport().
      const auto& fs = p.dec.stats();
      const std::uint64_t corrupt =
          fs.bad_magic + fs.oversized + fs.bad_payload;
      if (corrupt != p.corrupt_seen) {
        bump(n.corrupt_frames, corrupt - p.corrupt_seen);
        p.corrupt_seen = corrupt;
      }
      if (!intact) {
        // Poisoned stream (bad magic / oversized length): framing is lost,
        // the decoder counted it; drop the connection and let the
        // initiator end re-establish it with a fresh decoder.
        drop_conn(n, peer, true);
        return;
      }
      if (p.dec.mid_frame()) {
        if (p.partial_since == 0) p.partial_since = now();
      } else {
        p.partial_since = 0;
      }
      continue;
    }
    if (r == 0) {
      drop_conn(n, peer, true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    drop_conn(n, peer, true);
    return;
  }
}

void Mesh::flush_peer(Node& n, ProcessId peer) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  if (!p.fd.valid() || p.connecting || !p.ready) return;
  while (!p.hello_out.empty()) {
    const ssize_t w =
        ::write(p.fd.get(), p.hello_out.data(), p.hello_out.size());
    if (w > 0) {
      p.hello_out.erase(0, static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_write_interest(n, peer);
      return;
    }
    if (w < 0 && errno == EINTR) continue;
    drop_conn(n, peer, true);
    return;
  }
  while (p.out_head < p.out.size()) {
    const ssize_t w = ::write(p.fd.get(), p.out.data() + p.out_head,
                              p.out.size() - p.out_head);
    if (w > 0) {
      p.out_head += static_cast<std::size_t>(w);
      // Advance the frame-aligned resend point past fully-written frames.
      while (!p.out_sizes.empty() &&
             p.out_frame_start + p.out_sizes.front() <= p.out_head) {
        p.out_frame_start += p.out_sizes.front();
        p.out_sizes.pop_front();
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    drop_conn(n, peer, true);
    return;
  }
  // Compact the fully-flushed prefix once it dominates the buffer.
  if (p.out_frame_start > (1u << 16) &&
      p.out_frame_start * 2 >= p.out.size()) {
    p.out.erase(0, p.out_frame_start);
    p.out_head -= p.out_frame_start;
    p.out_frame_start = 0;
  }
  update_write_interest(n, peer);
}

void Mesh::update_write_interest(Node& n, ProcessId peer) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  if (!p.fd.valid() || p.connecting) return;
  const bool want = !p.hello_out.empty() || p.out_head < p.out.size();
  if (want == p.want_write) return;
  p.want_write = want;
  epoll_mod(n, p.fd.get(), EPOLLIN | (want ? EPOLLOUT : 0u));
}

void Mesh::drop_conn(Node& n, ProcessId peer, bool reconnect_now) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  if (p.fd.valid()) {
    n.fd_peer.erase(p.fd.get());
    epoll_del(n, p.fd.get());
    p.fd.reset();
  }
  p.connecting = false;
  p.ready = false;
  p.want_write = false;
  p.dec.reset();  // counters survive; buffered partial bytes do not
  p.partial_since = 0;
  p.hello_out.clear();
  // Rewind to the first frame not fully handed to the kernel: the peer
  // resets its decoder on disconnect, so the retransmitted frame arrives
  // whole, never spliced into a stale partial.
  p.out_head = p.out_frame_start;
  if (n.pid > peer && !stopping_.load(std::memory_order_relaxed)) {
    p.attempts = 0;
    p.next_attempt = reconnect_now ? now() : now() + opts_.backoff.base_ns;
  }
}

void Mesh::attempt_connect(Node& n, ProcessId peer) {
  Peer& p = n.peers[static_cast<std::size_t>(peer)];
  bump(n.connect_attempts);
  bool in_progress = false;
  Fd fd = connect_loopback(node(peer).port, in_progress);
  if (!fd.valid()) {
    p.attempts++;
    p.next_attempt =
        now() + backoff_delay_ns(opts_.backoff, p.attempts, n.net_rng);
    return;
  }
  const int raw = fd.get();
  p.fd = std::move(fd);
  n.fd_peer[raw] = peer;
  if (in_progress) {
    p.connecting = true;
    epoll_add(n, raw, EPOLLOUT);
  } else {
    epoll_add(n, raw, EPOLLIN);
    on_connected(n, peer);
  }
}

void Mesh::service_reconnects(Node& n) {
  const Time t = now();
  for (ProcessId q = 0; q < n.pid; ++q) {  // the higher pid initiates
    Peer& p = n.peers[static_cast<std::size_t>(q)];
    if (p.fd.valid() || p.connecting) continue;
    if (t < p.next_attempt) continue;
    attempt_connect(n, q);
  }
}

void Mesh::service_timeouts(Node& n) {
  const Time t = now();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n.peers.size()); ++q) {
    Peer& p = n.peers[static_cast<std::size_t>(q)];
    if (p.ready && p.partial_since != 0 &&
        t - p.partial_since > frame_timeout_ns_) {
      // A peer silent mid-frame past the deadline is a truncating peer.
      bump(n.partial_timeouts);
      drop_conn(n, q, true);
    }
  }
  for (auto it = n.pending.begin(); it != n.pending.end();) {
    if (t - it->second.since > frame_timeout_ns_) {
      bump(n.handshake_failures);
      epoll_del(n, it->first);
      it = n.pending.erase(it);
    } else {
      ++it;
    }
  }
}

void Mesh::service_severs(Node& n) {
  std::vector<ProcessId> severs;
  {
    std::lock_guard lock(n.sever_mu);
    severs.swap(n.sever_reqs);
  }
  for (const ProcessId peer : severs) drop_conn(n, peer, true);
}

void Mesh::fire_timers(Node& n) {
  for (;;) {
    TimedItem item;
    {
      std::lock_guard lock(n.timer_mu);
      if (n.heap.empty() || n.heap.front().at > now()) return;
      std::pop_heap(n.heap.begin(), n.heap.end(), &timed_later);
      item = std::move(n.heap.back());
      n.heap.pop_back();
    }
    if (!item.is_write) {
      deliver_fn_step(n, std::move(item.fn));
    } else if (item.to == n.pid) {
      // Self-sends (never used by the protocols) skip the socket.
      deliver_msg_step(n, n.pid, item.msg);
    } else {
      // A reorder-deferred or released copy enters the socket now (still
      // pending until the receiver delivers or drops it).
      send_frame(n, item.to, wire::encode_frame(item.msg));
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

net::NetStats Mesh::stats() const {
  net::NetStats total;
  for (const auto& np : nodes_) total += np->local_stats;
  total.messages_dropped += proxy_.dropped();
  return total;
}

TransportStats Mesh::transport() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  TransportStats t;
  for (const auto& np : nodes_) {
    t.connects += np->connects.load(kRelaxed);
    t.connect_attempts += np->connect_attempts.load(kRelaxed);
    t.partial_timeouts += np->partial_timeouts.load(kRelaxed);
    t.handshake_failures += np->handshake_failures.load(kRelaxed);
    t.corrupt_frames += np->corrupt_frames.load(kRelaxed);
  }
  return t;
}

// ---------------------------------------------------------------------------
// epoll plumbing
// ---------------------------------------------------------------------------

void Mesh::epoll_add(Node& n, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(n.epoll.get(), EPOLL_CTL_ADD, fd, &ev);
}

void Mesh::epoll_mod(Node& n, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(n.epoll.get(), EPOLL_CTL_MOD, fd, &ev);
}

void Mesh::epoll_del(Node& n, int fd) {
  epoll_event ev{};  // non-null for pre-2.6.9 kernel compatibility
  ::epoll_ctl(n.epoll.get(), EPOLL_CTL_DEL, fd, &ev);
}

}  // namespace rr::netio
