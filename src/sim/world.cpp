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
  procs_.push_back(ProcSlot{std::move(p), rng_.fork()});
  proxy_.add_process();
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
  proxy_.set_link_faults(lf);
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
    if (proxy_.crashed(pid)) continue;
    WorldContext ctx(*this, pid);
    procs_[static_cast<std::size_t>(pid)].proc->on_start(ctx);
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
// Releasing held channels (net::ChannelProxy's policy)
// ---------------------------------------------------------------------------

// Released backlogs are re-injected with fresh delays from `now`, in FIFO
// order (the event sequence numbers keep send order among equal times).
void World::release(ProcessId from, ProcessId to) {
  proxy_.release(from, to, [this](ProcessId f, ProcessId t,
                                  wire::Message&& msg) {
    schedule_copy(f, t, std::move(msg), 0);
  });
}

void World::release_all(ProcessId pid) {
  proxy_.release_all(pid, [this](ProcessId f, ProcessId t,
                                 wire::Message&& msg) {
    schedule_copy(f, t, std::move(msg), 0);
  });
}

// ---------------------------------------------------------------------------
// Send / deliver / step
// ---------------------------------------------------------------------------

void World::do_send(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(to >= 0 && to < num_processes());
  stats_.count_send(msg, opts_.account_bytes ? wire::encoded_size(msg) : 0);
  // Fault draws come from the dedicated link stream; channel delays from
  // the base stream, so enabling a rule never perturbs the delay sequence.
  proxy_.send(from, to, std::move(msg), [this] { return now_; }, link_rng_,
              stats_, [this, from, to](wire::Message&& copy, Time defer) {
                schedule_copy(from, to, std::move(copy), defer);
              });
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

void World::schedule_copy(ProcessId from, ProcessId to, wire::Message msg,
                          Time defer) {
  const Time at = now_ + channel_delay(from, to) + defer;
  const EventIndex idx = alloc_event();
  keys_[idx] = EventKey{at, next_seq_++, to, /*is_delivery=*/true};
  EventBody& body = bodies_[idx];
  body.from = from;
  body.msg = std::move(msg);
  heap_push(idx);
}

void World::deliver_one(WorldContext& ctx, ProcSlot& slot, ProcessId from,
                        wire::Message& msg) {
  if (!proxy_.admit(from, ctx.self())) return;
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
  } else if (!proxy_.crashed(key.dest)) {
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
    if (!proxy_.crashed(key.dest)) body.fn(ctx);
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
