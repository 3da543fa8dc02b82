#include "sim/world.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "wire/codec.hpp"

namespace rr::sim {

/// The Context handed to a process while it takes a step under the DES.
class WorldContext final : public net::Context {
 public:
  WorldContext(World& world, ProcessId self) : world_(world), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] Time now() const override { return world_.local_now(self_); }

  void send(ProcessId to, wire::Message msg) override {
    world_.do_send(self_, to, std::move(msg));
  }

  [[nodiscard]] Rng& rng() override {
    return world_.procs_[static_cast<std::size_t>(self_)].rng;
  }

 private:
  World& world_;
  ProcessId self_;
};

World::World(Options opts)
    : opts_(opts),
      rng_(opts.seed),
      delay_(std::make_unique<UniformDelay>(1'000, 10'000)) {}

World::~World() = default;

ProcessId World::add_process(std::unique_ptr<net::Process> p) {
  RR_ASSERT(p != nullptr);
  const auto pid = static_cast<ProcessId>(procs_.size());
  procs_.push_back(ProcSlot{std::move(p), rng_.fork(), false});
  return pid;
}

void World::replace_process(ProcessId pid, std::unique_ptr<net::Process> p) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  RR_ASSERT(p != nullptr);
  procs_[static_cast<std::size_t>(pid)].proc = std::move(p);
}

void World::set_delay_model(std::unique_ptr<DelayModel> m) {
  RR_ASSERT(m != nullptr);
  delay_ = std::move(m);
}

void World::set_link_faults(const net::LinkFaults& lf) {
  link_faults_ = lf;
  link_enabled_ = lf.any();
  link_rng_ = Rng(mix64(lf.seed ^ 0x11fa'0175'0000ULL));
}

void World::set_gray(ProcessId pid, double factor) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  if (gray_.empty() && factor <= 1.0) return;
  if (gray_.size() < static_cast<std::size_t>(num_processes())) {
    gray_.resize(static_cast<std::size_t>(num_processes()), 1.0);
  }
  gray_[static_cast<std::size_t>(pid)] = factor > 1.0 ? factor : 1.0;
}

void World::set_clock_skew(ProcessId pid, std::int64_t offset) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  if (skew_.empty() && offset == 0) return;
  if (skew_.size() < static_cast<std::size_t>(num_processes())) {
    skew_.resize(static_cast<std::size_t>(num_processes()), 0);
  }
  skew_[static_cast<std::size_t>(pid)] = offset;
}

net::Process& World::process(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  return *procs_[static_cast<std::size_t>(pid)].proc;
}

void World::start() {
  for (ProcessId pid = 0; pid < num_processes(); ++pid) {
    auto& slot = procs_[static_cast<std::size_t>(pid)];
    if (slot.crashed) continue;
    WorldContext ctx(*this, pid);
    slot.proc->on_start(ctx);
  }
}

// ---------------------------------------------------------------------------
// Event slab (SoA) + 4-ary index heap
// ---------------------------------------------------------------------------

World::EventIndex World::alloc_event() {
  if (!free_.empty()) {
    const EventIndex idx = free_.back();
    free_.pop_back();
    return idx;
  }
  keys_.emplace_back();
  bodies_.emplace_back();
  return static_cast<EventIndex>(keys_.size() - 1);
}

void World::heap_push(EventIndex idx) {
  heap_.push_back(idx);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

World::EventIndex World::heap_pop() {
  const EventIndex top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(heap_[c], heap_[best])) best = c;
    }
    if (!event_before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

void World::post(Time at, ProcessId pid, net::PostFn fn) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  RR_ASSERT(at >= now_);
  const EventIndex idx = alloc_event();
  keys_[idx] = EventKey{at, next_seq_++, pid, /*is_delivery=*/false};
  EventBody& body = bodies_[idx];
  body.from = kNoProcess;
  body.fn = std::move(fn);
  heap_push(idx);
}

// ---------------------------------------------------------------------------
// Crashes and held channels
// ---------------------------------------------------------------------------

World::BufferIndex World::alloc_buffer() {
  if (!buffer_free_.empty()) {
    const BufferIndex idx = buffer_free_.back();
    buffer_free_.pop_back();
    return idx;
  }
  buffer_pool_.emplace_back();
  return static_cast<BufferIndex>(buffer_pool_.size() - 1);
}

void World::recycle_buffer(BufferIndex idx) {
  buffer_pool_[idx].clear();  // keeps capacity for the next hold wave
  buffer_free_.push_back(idx);
}

void World::crash(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  procs_[static_cast<std::size_t>(pid)].crashed = true;
  // Discard buffers held on channels adjacent to the crashed process: those
  // messages could only ever be dropped at delivery, so freeing them now
  // keeps long chaos runs from pinning dead history payloads.
  if (held_count_ == 0) return;
  for (auto it = held_buffers_.begin(); it != held_buffers_.end();) {
    const auto from = static_cast<ProcessId>(it->first >> 32);
    const auto to = static_cast<ProcessId>(it->first & 0xffffffffu);
    if (from != pid && to != pid) {
      ++it;
      continue;
    }
    stats_.messages_dropped += buffer_pool_[it->second].size();
    recycle_buffer(it->second);
    it = held_buffers_.erase(it);
  }
}

bool World::crashed(ProcessId pid) const {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(procs_.size()));
  return procs_[static_cast<std::size_t>(pid)].crashed;
}

void World::ensure_flag_capacity() {
  const auto n = static_cast<std::size_t>(num_processes());
  if (n <= flag_stride_) return;
  std::vector<std::uint8_t> grown(n * n, 0);
  for (std::size_t f = 0; f < flag_stride_; ++f) {
    for (std::size_t t = 0; t < flag_stride_; ++t) {
      grown[f * n + t] = held_flags_[f * flag_stride_ + t];
    }
  }
  held_flags_ = std::move(grown);
  flag_stride_ = n;
}

void World::hold(ProcessId from, ProcessId to) {
  RR_ASSERT(from >= 0 && from < num_processes());
  RR_ASSERT(to >= 0 && to < num_processes());
  ensure_flag_capacity();
  auto& flag =
      held_flags_[static_cast<std::size_t>(from) * flag_stride_ +
                  static_cast<std::size_t>(to)];
  if (flag != 0) return;
  flag = 1;
  ++held_count_;
}

void World::hold_all(ProcessId pid) {
  for (ProcessId q = 0; q < num_processes(); ++q) {
    if (q == pid) continue;  // the self-channel pid -> pid is never used
    hold(pid, q);
    hold(q, pid);
  }
}

bool World::held(ProcessId from, ProcessId to) const {
  return chan_flag(from, to);
}

void World::release(ProcessId from, ProcessId to) {
  if (!chan_flag(from, to)) return;
  held_flags_[static_cast<std::size_t>(from) * flag_stride_ +
              static_cast<std::size_t>(to)] = 0;
  --held_count_;
  const auto it = held_buffers_.find(chan_key(from, to));
  if (it == held_buffers_.end()) return;
  const BufferIndex idx = it->second;
  held_buffers_.erase(it);
  // Re-inject with fresh delays from `now`, preserving send order via the
  // monotonically increasing sequence numbers. Scheduling only touches the
  // event slab, never the buffer pool, so draining in place is safe; the
  // drained buffer goes back to the free list with its capacity intact.
  for (auto& msg : buffer_pool_[idx]) {
    const Time d = channel_delay(from, to);
    schedule_delivery(from, to, std::move(msg), now_ + d);
  }
  recycle_buffer(idx);
}

void World::release_all(ProcessId pid) {
  for (ProcessId q = 0; q < num_processes(); ++q) {
    release(pid, q);
    release(q, pid);
  }
}

// ---------------------------------------------------------------------------
// Send / deliver / step
// ---------------------------------------------------------------------------

void World::do_send(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(to >= 0 && to < num_processes());
  stats_.count_send(msg, opts_.account_bytes ? wire::encoded_size(msg) : 0);
  // Link faults fire at send time, before hold buffering, so a held channel
  // still loses/duplicates traffic. Draw order is fixed (loss, then
  // duplicate, then per-copy reorder at scheduling) from the dedicated
  // link RNG, keeping the base delay stream untouched.
  int copies = 1;
  if (link_enabled_) {
    const auto& loss = link_faults_.loss;
    if (loss.active(now_) && loss.covers(from, to) &&
        link_rng_.chance(loss.p)) {
      stats_.messages_lost++;
      return;
    }
    const auto& dup = link_faults_.duplicate;
    if (dup.active(now_) && dup.covers(from, to) &&
        link_rng_.chance(dup.p)) {
      stats_.messages_duplicated++;
      copies = 2;
    }
  }
  if (held_count_ != 0 && chan_flag(from, to)) {
    // A buffer on a channel adjacent to a crashed endpoint could only ever
    // be purged (crash() discards it; delivery would drop it), so don't
    // let post-crash sends refill it and pin memory until release.
    if (procs_[static_cast<std::size_t>(to)].crashed ||
        procs_[static_cast<std::size_t>(from)].crashed) {
      stats_.messages_dropped++;
      return;
    }
    auto [it, inserted] = held_buffers_.try_emplace(chan_key(from, to), 0);
    if (inserted) it->second = alloc_buffer();
    auto& buf = buffer_pool_[it->second];
    for (int c = 1; c < copies; ++c) buf.push_back(msg);
    buf.push_back(std::move(msg));
    return;
  }
  for (int c = 1; c < copies; ++c) schedule_with_faults(from, to, msg);
  schedule_with_faults(from, to, std::move(msg));
}

Time World::channel_delay(ProcessId from, ProcessId to) {
  const Time d = delay_->sample(from, to, now_, rng_);
  if (gray_.empty()) return d;
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  double m = 1.0;
  if (f < gray_.size()) m = gray_[f];
  if (t < gray_.size() && gray_[t] > m) m = gray_[t];
  return scale_delay(d, m);
}

void World::schedule_with_faults(ProcessId from, ProcessId to,
                                 wire::Message msg) {
  Time d = channel_delay(from, to);
  if (link_enabled_) {
    const auto& re = link_faults_.reorder;
    if (re.active(now_) && re.covers(from, to) && link_rng_.chance(re.p)) {
      stats_.messages_reordered++;
      d += link_faults_.reorder_delay;
    }
  }
  schedule_delivery(from, to, std::move(msg), now_ + d);
}

void World::schedule_delivery(ProcessId from, ProcessId to, wire::Message msg,
                              Time at) {
  const EventIndex idx = alloc_event();
  keys_[idx] = EventKey{at, next_seq_++, to, /*is_delivery=*/true};
  EventBody& body = bodies_[idx];
  body.from = from;
  body.msg = std::move(msg);
  heap_push(idx);
}

void World::deliver_one(net::Context& ctx, ProcSlot& slot, ProcessId from,
                        wire::Message& msg) {
  if (slot.crashed || crashed(from)) {
    // Crash-faulty endpoints: the message is lost. (For the paper's
    // purposes only the recipient matters, but a crashed sender's in-flight
    // messages disappearing is also legal in a partial run.)
    stats_.messages_dropped++;
    return;
  }
  stats_.messages_delivered++;
  if (opts_.reserialize) {
    auto round_tripped = wire::decode(wire::encode(msg));
    RR_ASSERT_MSG(round_tripped.has_value(), "codec must round-trip");
    slot.proc->on_message(ctx, from, *round_tripped);
  } else {
    slot.proc->on_message(ctx, from, msg);
  }
}

void World::fp_note(const EventKey& key, const EventBody& body) {
  // Everything that identifies the executed step: when, who stepped, what
  // kind of event, and for deliveries the sender and message type. The
  // slab index and seq are deliberately excluded -- they are allocation
  // details, not schedule semantics.
  const auto kind =
      key.is_delivery ? static_cast<std::uint64_t>(body.msg.index()) + 2 : 1;
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.dest))
       << 32) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(body.from + 1))
       << 8) |
      kind;
  fp_ = mix64(fp_ ^ key.at ^ packed);
}

bool World::step() {
  if (heap_.empty()) return false;
  RR_ASSERT_MSG(executed_ < opts_.max_events,
                "event budget exhausted: likely livelock in a protocol");
  const EventIndex idx = heap_pop();
  // Copy the key and move the body out of the slab, recycling the slot
  // *before* running the handler: handlers send messages, which may claim
  // the slot (and, on slab growth, invalidate references into the slab
  // arrays). The move steals the message payload -- no deep copy, no
  // allocation.
  const EventKey key = keys_[idx];
  EventBody body = std::move(bodies_[idx]);
  bodies_[idx].fn = nullptr;
  free_.push_back(idx);
  executed_++;
  RR_ASSERT(key.at >= now_);
  now_ = key.at;
  if (opts_.trace_fingerprint) fp_note(key, body);
  auto& slot = procs_[static_cast<std::size_t>(key.dest)];
  WorldContext ctx(*this, key.dest);
  if (key.is_delivery) {
    deliver_one(ctx, slot, body.from, body.msg);
  } else if (!slot.crashed) {
    body.fn(ctx);
  }
  return true;
}

std::uint64_t World::step_batch() {
  RR_ASSERT_MSG(executed_ < opts_.max_events,
                "event budget exhausted: likely livelock in a protocol");
  const EventIndex idx = heap_pop();
  const EventKey key = keys_[idx];
  EventBody body = std::move(bodies_[idx]);
  bodies_[idx].fn = nullptr;
  free_.push_back(idx);
  executed_++;
  RR_ASSERT(key.at >= now_);
  now_ = key.at;
  if (opts_.trace_fingerprint) fp_note(key, body);
  auto& slot = procs_[static_cast<std::size_t>(key.dest)];
  WorldContext ctx(*this, key.dest);
  if (!key.is_delivery) {
    if (!slot.crashed) body.fn(ctx);
    return 1;
  }
  deliver_one(ctx, slot, body.from, body.msg);
  // Drain the run of queued deliveries with the same (time, dest), reusing
  // the context and destination slot. Order is exactly what repeated step()
  // would produce: a run is a prefix of the (at, seq) sort, batched events
  // cannot change crash or hold state (handlers only send), and any event a
  // handler creates sorts after the whole run (larger seq, at >= now).
  std::uint64_t n = 1;
  while (!heap_.empty()) {
    const EventIndex top = heap_.front();
    const EventKey& tk = keys_[top];
    if (tk.at != now_ || tk.dest != key.dest || !tk.is_delivery) break;
    RR_ASSERT_MSG(executed_ < opts_.max_events,
                  "event budget exhausted: likely livelock in a protocol");
    (void)heap_pop();
    const EventKey bk = keys_[top];  // slab may grow during delivery
    EventBody b = std::move(bodies_[top]);
    free_.push_back(top);
    executed_++;
    ++n;
    if (opts_.trace_fingerprint) fp_note(bk, b);
    deliver_one(ctx, slot, b.from, b.msg);
  }
  return n;
}

std::uint64_t World::run() {
  std::uint64_t n = 0;
  while (!heap_.empty()) n += step_batch();
  return n;
}

std::uint64_t World::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!heap_.empty() && keys_[heap_.front()].at <= deadline) {
    n += step_batch();
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace rr::sim
