#include "load.hpp"

#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

namespace {

struct CpuTimes {
  std::uint64_t total_ns{0};
  std::uint64_t sys_ns{0};
};

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  return {ns(ru.ru_utime) + ns(ru.ru_stime), ns(ru.ru_stime)};
}

rr::harness::OpenLoopOptions sampler_options(const OpenLoad& o,
                                             std::uint64_t seed) {
  rr::harness::OpenLoopOptions opts;
  opts.arrival = rr::harness::ArrivalKind::Bursty;
  opts.clients = o.clients;
  // The bursty shape runs at `boost` x the base rate for `duty` of each
  // period and at the base rate otherwise; solve for the base rate that
  // gives the requested mean.
  const double base_per_s =
      o.arrivals_per_s / (o.burst_duty * o.burst_boost + 1.0 - o.burst_duty);
  opts.mean_think = static_cast<Time>(static_cast<double>(o.clients) * 1e9 /
                                      base_per_s);
  opts.horizon = ~Time{0} / 4;  // runs end on the stop rule, not the horizon
  opts.burst_period = o.burst_period;
  opts.burst_duty = o.burst_duty;
  opts.burst_boost = o.burst_boost;
  opts.write_fraction = o.write_fraction;
  opts.queue_cap = o.queue_cap;
  opts.seed = seed;
  return opts;
}

}  // namespace

rr::net::NetStats stats_delta(const rr::net::NetStats& a,
                              const rr::net::NetStats& b) {
  rr::net::NetStats d;
  d.messages_sent = b.messages_sent - a.messages_sent;
  d.messages_delivered = b.messages_delivered - a.messages_delivered;
  d.messages_dropped = b.messages_dropped - a.messages_dropped;
  d.bytes_sent = b.bytes_sent - a.bytes_sent;
  d.messages_lost = b.messages_lost - a.messages_lost;
  d.messages_duplicated = b.messages_duplicated - a.messages_duplicated;
  d.messages_reordered = b.messages_reordered - a.messages_reordered;
  for (std::size_t i = 0; i < rr::net::NetStats::kNumTypes; ++i) {
    d.messages_by_type[i] = b.messages_by_type[i] - a.messages_by_type[i];
    d.bytes_by_type[i] = b.bytes_by_type[i] - a.bytes_by_type[i];
  }
  d.hist_slots_shipped = b.hist_slots_shipped - a.hist_slots_shipped;
  d.hist_resyncs = b.hist_resyncs - a.hist_resyncs;
  return d;
}

LoadGenerator::LoadGenerator(Rig& rig, std::optional<OpenLoad> open, std::uint64_t seed)
    : rig_(rig), open_(std::move(open)), rng_(rr::mix64(seed ^ 0x10adULL)) {
  const auto& layout = rig_.layout();
  const std::size_t cap = open_ ? open_->queue_cap : 1;
  for (int s = 0; s < layout.shards; ++s) {
    stations_.push_back(
        std::make_unique<Station>(layout.writer(s), s, -1, cap));
    for (int j = 0; j < layout.readers; ++j) {
      stations_.push_back(
          std::make_unique<Station>(layout.reader(s, j), s, j, cap));
    }
  }
  if (open_) {
    sampler_ = std::make_unique<rr::harness::ArrivalSampler>(
        sampler_options(*open_, seed), rr::mix64(seed ^ 0xa77ULL));
  }
}

PhaseResult LoadGenerator::run_phase(const StopRule& stop) {
  stop_ = stop;
  arrivals_ = shed_ = max_depth_ = 0;
  for (auto& st : stations_) {
    st->issued = st->completed = st->rounds = 0;
    st->lat.clear();
    st->lag.clear();
  }
  auto& backend = rig_.backend();
  const CpuTimes cpu0 = process_cpu();
  const std::uint64_t t0 = now_ns();

  if (open_) {
    schedule_arrival(backend.now());
  } else {
    // Station order (per shard: writer, then readers) is also the order a
    // Deployment's write_stream / read_stream calls post in.
    for (auto& st : stations_) issue(*st, backend.now(), backend.now());
  }
  PhaseResult r;
  r.events = backend.run();

  r.wall_ns = now_ns() - t0;
  const CpuTimes cpu1 = process_cpu();
  r.cpu_ns = cpu1.total_ns - cpu0.total_ns;
  r.sys_ns = cpu1.sys_ns - cpu0.sys_ns;
  r.timed_out = backend.timed_out();
  r.arrivals = arrivals_;
  r.shed = shed_;
  r.max_queue_depth = max_depth_;
  for (const auto& st : stations_) {
    r.issued += st->issued;
    r.completed += st->completed;
    auto& lat = st->reader < 0 ? r.write_lat : r.read_lat;
    lat.insert(lat.end(), st->lat.begin(), st->lat.end());
    r.lag.insert(r.lag.end(), st->lag.begin(), st->lag.end());
    if (st->reader >= 0) {
      r.reads += st->completed;
      r.read_rounds += st->rounds;
    }
  }
  return r;
}

bool LoadGenerator::stop_issuing(const Station& st) const {
  if (stop_.deadline_ns != 0) return now_ns() >= stop_.deadline_ns;
  return open_ ? arrivals_ >= stop_.count : st.issued >= stop_.count;
}

void LoadGenerator::issue(Station& st, Time at, Time due) {
  ++st.issued;
  rig_.backend().post(at, st.pid, [this, &st, due](rr::net::Context& ctx) {
    start_op(ctx, st, due);
  });
}

void LoadGenerator::start_op(rr::net::Context& ctx, Station& st, Time due) {
  const Time t0 = rig_.backend().now();
  Tracer* tr = rig_.tracer();
  const OpId op = tr != nullptr ? tr->begin_op(st.pid) : OpId{};
  const ScopedSpan harness_span(tr, Layer::Harness, op);
  st.lag.push_back(t0 > due ? t0 - due : 0);

  std::optional<TracedContext> traced;
  if (tr != nullptr) traced.emplace(ctx, *tr);
  rr::net::Context& c =
      traced ? static_cast<rr::net::Context&>(*traced) : ctx;
  auto& log = rig_.log(st.shard);

  // Logged exactly like Deployment::logged_write / logged_read: invocation
  // recorded at the step's start on the backend clock, response in the
  // completion callback.
  if (st.reader < 0) {
    const rr::Value v = rr::harness::value_for(++st.next_k);
    std::size_t handle = 0;
    {
      const ScopedSpan s(tr, Layer::Checker, op);
      handle = log.record_invocation(rr::checker::OpRecord::Kind::Write, -1,
                                     t0, v);
    }
    const ScopedSpan core_span(tr, Layer::Core, op);
    rig_.writer(st.shard).write(
        c, v, [this, &st, due, handle, v, op](const rr::core::WriteResult& r) {
          {
            const ScopedSpan s(rig_.tracer(), Layer::Checker, op);
            rig_.log(st.shard).record_write_response(
                handle, rig_.backend().now(), r.ts, v);
          }
          const ScopedSpan h(rig_.tracer(), Layer::Harness, op);
          complete(st, due, r.completed_at, r.rounds);
        });
  } else {
    std::size_t handle = 0;
    {
      const ScopedSpan s(tr, Layer::Checker, op);
      handle = log.record_invocation(rr::checker::OpRecord::Kind::Read,
                                     st.reader, t0);
    }
    const ScopedSpan core_span(tr, Layer::Core, op);
    rig_.reader(st.shard, st.reader)
        .read(c, [this, &st, due, handle, op](const rr::core::ReadResult& r) {
          {
            const ScopedSpan s(rig_.tracer(), Layer::Checker, op);
            rig_.log(st.shard).record_read_response(
                handle, rig_.backend().now(), r.tsval);
          }
          const ScopedSpan h(rig_.tracer(), Layer::Harness, op);
          complete(st, due, r.completed_at, r.rounds);
        });
  }
}

void LoadGenerator::complete(Station& st, Time due, Time done, int rounds) {
  const Time latency = done > due ? done - due : 0;
  if (!open_) {
    ++st.completed;
    st.rounds += static_cast<std::uint64_t>(rounds);
    st.lat.push_back(latency);
    if (!stop_issuing(st)) issue(st, done, done);
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ++st.completed;
  st.rounds += static_cast<std::uint64_t>(rounds);
  st.lat.push_back(latency);
  st.busy = false;
  if (!st.ring.empty()) {
    Time arrival = 0;
    std::uint32_t client = 0;
    st.ring.pop(arrival, client);
    st.busy = true;
    issue(st, done, arrival);
  }
}

void LoadGenerator::schedule_arrival(Time t) {
  if (stop_issuing(*stations_.front())) return;
  const Time next = t + sampler_->next(t);
  // One self-rescheduling generator hosted on shard 0's writer, as in
  // OpenLoopEngine: O(stations) state whatever the client population.
  rig_.backend().post(next, rig_.layout().writer(0),
                      [this, next](rr::net::Context&) {
                        const ScopedSpan span(rig_.tracer(), Layer::Harness,
                                              OpId{});
                        on_arrival(next);
                        schedule_arrival(next);
                      });
}

void LoadGenerator::on_arrival(Time t) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++arrivals_;
  const auto client =
      static_cast<std::uint32_t>(rng_.uniform(0, open_->clients - 1));
  const bool is_write = rng_.chance(open_->write_fraction);
  const auto shards = static_cast<std::uint32_t>(rig_.layout().shards);
  const auto readers = static_cast<std::uint32_t>(rig_.layout().readers);
  const std::uint32_t shard = client % shards;
  const std::uint32_t j = is_write ? 0 : 1 + (client / shards) % readers;
  Station& st = *stations_[shard * (1 + readers) + j];
  if (!st.busy) {
    st.busy = true;
    issue(st, t, t);
  } else if (st.ring.push(t, client)) {
    max_depth_ = std::max<std::uint64_t>(max_depth_, st.ring.size());
  } else {
    ++shed_;
  }
}

}  // namespace perfbench
