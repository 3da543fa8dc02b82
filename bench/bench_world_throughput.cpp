// Event-simulator throughput microbench: the refactored zero-allocation
// World hot path vs. the seed implementation (std::priority_queue<Event>
// copied from top(), encode()-based byte accounting, std::map stats), which
// is replicated verbatim below under namespace legacy so both loops run the
// identical workload in the same binary.
//
// Emits BENCH_world_throughput.json with events/sec, ns/event and bytes
// accounted for both loops plus the speedup ratio. Pass --quick for a
// smaller event budget (CI smoke mode), --events=N to override.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/process.hpp"
#include "sim/delay.hpp"
#include "sim/world.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace {

using namespace rr;

// ---------------------------------------------------------------------------
// The seed hot loop, reproduced exactly (fat Event in a priority_queue,
// copy-from-top, encode().size() byte accounting, std::map per-type stats
// and held-channel map). Kept minimal: the subset the workload exercises.
// ---------------------------------------------------------------------------
namespace legacy {

struct LegacyStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t bytes_sent{0};
  std::map<std::size_t, std::uint64_t> messages_by_type;
  std::map<std::size_t, std::uint64_t> bytes_by_type;
};

class LegacyWorld {
 public:
  explicit LegacyWorld(std::uint64_t seed)
      : rng_(seed), delay_(std::make_unique<sim::UniformDelay>(1'000, 10'000)) {}

  ProcessId add_process(std::unique_ptr<net::Process> p) {
    const auto pid = static_cast<ProcessId>(procs_.size());
    procs_.push_back(Slot{std::move(p), rng_.fork()});
    return pid;
  }

  void post(Time at, ProcessId pid, std::function<void(net::Context&)> fn) {
    Event ev;
    ev.at = at;
    ev.seq = next_seq_++;
    ev.is_delivery = false;
    ev.to = pid;
    ev.fn = std::move(fn);
    queue_.push(std::move(ev));
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  [[nodiscard]] const LegacyStats& stats() const { return stats_; }

 private:
  struct Event {
    Time at{};
    std::uint64_t seq{};
    bool is_delivery{false};
    ProcessId from{kNoProcess};
    ProcessId to{kNoProcess};
    wire::Message msg{};
    std::function<void(net::Context&)> fn{};
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    std::unique_ptr<net::Process> proc;
    Rng rng;
  };

  class Ctx final : public net::Context {
   public:
    Ctx(LegacyWorld& w, ProcessId self) : w_(w), self_(self) {}
    [[nodiscard]] ProcessId self() const override { return self_; }
    [[nodiscard]] Time now() const override { return w_.now_; }
    void send(ProcessId to, wire::Message msg) override {
      w_.do_send(self_, to, std::move(msg));
    }
    [[nodiscard]] Rng& rng() override {
      return w_.procs_[static_cast<std::size_t>(self_)].rng;
    }

   private:
    LegacyWorld& w_;
    ProcessId self_;
  };

  void do_send(ProcessId from, ProcessId to, wire::Message msg) {
    stats_.messages_sent++;
    stats_.messages_by_type[msg.index()]++;
    // Seed byte accounting: materialize the full encoding to count it.
    const std::size_t n = wire::encode(msg).size();
    stats_.bytes_sent += n;
    stats_.bytes_by_type[msg.index()] += n;
    if (auto it = held_.find({from, to}); it != held_.end()) {
      it->second.push_back(std::move(msg));
      return;
    }
    const Time d = delay_->sample(from, to, now_, rng_);
    Event ev;
    ev.at = now_ + d;
    ev.seq = next_seq_++;
    ev.is_delivery = true;
    ev.from = from;
    ev.to = to;
    ev.msg = std::move(msg);
    queue_.push(std::move(ev));
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();  // the seed's per-event deep copy
    queue_.pop();
    now_ = ev.at;
    if (ev.is_delivery) {
      stats_.messages_delivered++;
      Ctx ctx(*this, ev.to);
      procs_[static_cast<std::size_t>(ev.to)].proc->on_message(ctx, ev.from,
                                                              ev.msg);
    } else {
      Ctx ctx(*this, ev.to);
      ev.fn(ctx);
    }
    return true;
  }

  Rng rng_;
  Time now_{0};
  std::uint64_t next_seq_{0};
  std::vector<Slot> procs_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<wire::Message>> held_;
  std::unique_ptr<sim::DelayModel> delay_;
  LegacyStats stats_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Workload: a mesh of echo automata moving a regular-storage-like traffic
// mix -- mostly small acks, with periodic history-bearing HIST_ACKs and
// tuple-bearing PW messages. The seed loop deep-copies each event it pops,
// so every HIST_ACK costs it a fresh slot vector (the tuples inside share
// their sealed tsrarray blocks, so each costs only a reference count); the
// pool loop moves them. Each message carries a remaining-hop count in its
// timestamp field; the run drains when all hops are spent.
// ---------------------------------------------------------------------------

constexpr int kNumProcs = 10;

wire::History make_history(std::size_t slots) {
  wire::History h;
  for (Ts k = 0; k < slots; ++k) {
    h[k] = wire::HistEntry{TsVal{k, "value-payload"},
                           WTuple{TsVal{k, "value-payload"}, init_tsrarray(4)}};
  }
  return h;
}

class EchoProcess final : public net::Process {
 public:
  void on_message(net::Context& ctx, ProcessId /*from*/,
                  const wire::Message& msg) override {
    Ts hops = 0;
    if (const auto* ack = std::get_if<wire::WAckMsg>(&msg)) {
      hops = ack->ts;
    } else if (const auto* hist = std::get_if<wire::HistReadAckMsg>(&msg)) {
      hops = hist->tsr;
    } else if (const auto* pw = std::get_if<wire::PwMsg>(&msg)) {
      hops = pw->ts;
    }
    if (hops == 0) return;
    const ProcessId to = (ctx.self() + 1) % kNumProcs;
    // Read-dominated regular-storage mix: the unoptimized Figure 5/6
    // protocol ships a history in every READ ack, so half the traffic is
    // history-bearing; the rest are small acks plus periodic writer PWs.
    if (hops % 2 == 0) {
      if (shared_history_.empty()) shared_history_ = make_history(16);
      ctx.send(to, wire::HistReadAckMsg{1, hops - 1, shared_history_});
    } else if (hops % 16 == 1) {
      ctx.send(to, wire::PwMsg{hops - 1, TsVal{1, "value-payload"},
                               WTuple{TsVal{1, "value-payload"},
                                      init_tsrarray(6)}});
    } else {
      ctx.send(to, wire::WAckMsg{hops - 1});
    }
  }

 private:
  // Built once per process: the *send* copies it into the message exactly
  // once in both loops; what differs is what happens after the send (the
  // seed loop re-copies it out of priority_queue::top() and encodes it to a
  // string for byte accounting; the pool loop moves it and only counts).
  wire::History shared_history_;
};

template <class WorldT>
void seed_workload(WorldT& w, std::uint64_t target_events) {
  // Each chain burns ~hops events; spread the budget over 50 chains.
  const Ts hops = static_cast<Ts>(target_events / 50);
  for (int c = 0; c < 50; ++c) {
    const auto pid = static_cast<ProcessId>(c % kNumProcs);
    w.post(0, pid, [hops](net::Context& ctx) {
      ctx.send((ctx.self() + 1) % kNumProcs, wire::WAckMsg{hops});
    });
  }
}

struct Measurement {
  double events_per_sec{0};
  double ns_per_event{0};
  std::uint64_t events{0};
  std::uint64_t bytes_accounted{0};
};

template <class WorldT>
Measurement measure(std::uint64_t target_events, std::uint64_t seed) {
  WorldT w(seed);
  for (int i = 0; i < kNumProcs; ++i) {
    (void)w.add_process(std::make_unique<EchoProcess>());
  }
  seed_workload(w, target_events);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t events = w.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  Measurement m;
  m.events = events;
  m.events_per_sec = secs > 0 ? static_cast<double>(events) / secs : 0;
  m.ns_per_event =
      events > 0 ? 1e9 * secs / static_cast<double>(events) : 0;
  m.bytes_accounted = w.stats().bytes_sent;
  return m;
}

struct NewWorldAdapter : sim::World {
  explicit NewWorldAdapter(std::uint64_t seed)
      : sim::World([seed] {
          sim::WorldOptions o;
          o.seed = seed;
          return o;
        }()) {}
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t target_events = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) target_events = 100'000;
    if (std::strncmp(argv[i], "--events=", 9) == 0) {
      target_events = std::strtoull(argv[i] + 9, nullptr, 10);
    }
  }

  // Warmup both loops (page in code, grow the slab).
  (void)measure<legacy::LegacyWorld>(10'000, 1);
  (void)measure<NewWorldAdapter>(10'000, 1);

  const Measurement old_loop =
      measure<legacy::LegacyWorld>(target_events, 42);
  const Measurement new_loop = measure<NewWorldAdapter>(target_events, 42);
  const double speedup = old_loop.events_per_sec > 0
                             ? new_loop.events_per_sec / old_loop.events_per_sec
                             : 0;

  std::printf("=== World hot-path throughput (%llu-event budget) ===\n",
              static_cast<unsigned long long>(target_events));
  std::printf("seed loop (priority_queue copy + encode): %12.0f events/s  "
              "%7.1f ns/event  (%llu events, %llu bytes accounted)\n",
              old_loop.events_per_sec, old_loop.ns_per_event,
              static_cast<unsigned long long>(old_loop.events),
              static_cast<unsigned long long>(old_loop.bytes_accounted));
  std::printf("pool loop (slab + 4-ary heap + size visitor): %8.0f events/s  "
              "%7.1f ns/event  (%llu events, %llu bytes accounted)\n",
              new_loop.events_per_sec, new_loop.ns_per_event,
              static_cast<unsigned long long>(new_loop.events),
              static_cast<unsigned long long>(new_loop.bytes_accounted));
  std::printf("speedup: %.2fx\n", speedup);
  if (old_loop.bytes_accounted != new_loop.bytes_accounted ||
      old_loop.events != new_loop.events) {
    std::printf("WARNING: loops diverged (events or bytes differ) -- the "
                "comparison is not apples-to-apples\n");
  }

  FILE* out = std::fopen("BENCH_world_throughput.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"world_throughput\",\n"
        "  \"event_budget\": %llu,\n"
        "  \"seed_loop\": {\"events_per_sec\": %.1f, \"ns_per_event\": %.2f, "
        "\"events\": %llu, \"bytes_accounted\": %llu},\n"
        "  \"pool_loop\": {\"events_per_sec\": %.1f, \"ns_per_event\": %.2f, "
        "\"events\": %llu, \"bytes_accounted\": %llu},\n"
        "  \"speedup\": %.3f\n"
        "}\n",
        static_cast<unsigned long long>(target_events),
        old_loop.events_per_sec, old_loop.ns_per_event,
        static_cast<unsigned long long>(old_loop.events),
        static_cast<unsigned long long>(old_loop.bytes_accounted),
        new_loop.events_per_sec, new_loop.ns_per_event,
        static_cast<unsigned long long>(new_loop.events),
        static_cast<unsigned long long>(new_loop.bytes_accounted),
        speedup);
    std::fclose(out);
    std::printf("wrote BENCH_world_throughput.json\n");
  }
  return 0;
}
