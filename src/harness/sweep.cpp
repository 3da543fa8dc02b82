#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "harness/deployment.hpp"
#include "harness/primitives.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/workload.hpp"
#include "sim/world.hpp"

namespace rr::harness {
namespace {

/// Unexpected DES failures shrunk per run: shrinking re-runs a cell many
/// times, and one minimal schedule usually explains its neighbours.
constexpr int kMaxShrinks = 4;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ v);
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Orders up-front-posted fault edges on the threaded backend. Timed posts
/// are not guaranteed to run in `at` order there (Cluster::post's
/// already-due bypass can overtake an earlier edge still sitting in the
/// timer heap), and fault edges encode absolute state -- held vs released,
/// gray vs healthy -- so a stale edge applied after a newer one sticks
/// forever: a hold overtaken by its own release strands every buffered
/// message outside the quiescence count and the run reports stuck ops.
/// Give each edge of one fault an index in schedule order and have its
/// closure apply only if seal(index) says no newer edge has run yet; a
/// skipped stale edge degenerates the window, which is a legal schedule.
/// The DES executes timed posts in order, so every seal succeeds there and
/// behavior is bit-identical.
class EdgeSequencer {
 public:
  /// True if no edge newer than `index` has applied yet; marks `index`
  /// applied. Edges run serialized (steps of one pid), the atomic only
  /// spans the cross-thread handoff between steps.
  bool seal(int index) {
    int prev = newest_.load(std::memory_order_relaxed);
    while (prev < index) {
      if (newest_.compare_exchange_weak(prev, index,
                                        std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<int> newest_{-1};
};

/// Applies the post-construction part of one event: its edges, each posted
/// as a step of the shard-0 writer (purely for scheduling; they only touch
/// fault state), or, for a row without edges, its effect at once.
void inject(const FaultEvent& ev, Deployment& d, std::uint64_t seed) {
  const Primitive& p = primitive_of(ev);
  if (p.apply == nullptr) return;
  // Targets: the objects of an objs= list, else one object or the role's
  // client on every shard (the writer, or reader `object` of each shard).
  std::vector<ProcessId> pids;
  const bool by_objs = std::any_of(
      p.keys.begin(), p.keys.end(),
      [](const PrimitiveKey& k) { return k.type == KeyType::Objects; });
  if (by_objs) {
    for (const int o : ev.held) pids.push_back(d.object_pid(o));
  } else if (ev.role == Role::Object) {
    pids.push_back(d.object_pid(ev.object));
  } else {
    for (int sh = 0; sh < d.shards(); ++sh) {
      pids.push_back(ev.role == Role::Writer ? d.writer_pid(sh)
                                             : d.reader_pid(sh, ev.object));
    }
  }
  Backend& backend = d.backend();
  if (p.edges == nullptr) {
    for (const ProcessId pid : pids) p.apply(backend, pid, ev, true);
    return;
  }
  auto order = std::make_shared<EdgeSequencer>();
  int index = 0;
  for (const auto& [at, on] : p.edges(ev, backend.now(), seed)) {
    backend.post(at, d.writer_pid(),
                 [&backend, apply = p.apply, ev, pids, on = on, order,
                  edge = index++](net::Context&) {
                   if (!order->seal(edge)) return;
                   for (const ProcessId pid : pids) apply(backend, pid, ev, on);
                 });
  }
}

}  // namespace

SweepEngine::SweepEngine(std::vector<Scenario> scenarios)
    : scenarios_(std::move(scenarios)) {}

const Scenario* SweepEngine::find(std::string_view name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

CellVerdict SweepEngine::run_cell(const Scenario& s) {
  const auto& traits = protocol_traits(s.protocol);
  DeploymentOptions opts;
  opts.protocol = s.protocol;
  opts.backend = s.backend;
  opts.res = traits.resilience_for(s.t, s.b, s.readers);
  opts.shards = s.shards;
  opts.seed = s.run_seed;
  opts.trace_fingerprint = s.backend == BackendKind::Sim;
  opts.thread_max_wall_ms = s.max_wall_ms;
  opts.history_limit = s.history_limit;
  opts.history_gc = s.history_gc;
  opts.checker_window = s.checker_window;
  opts.checker_semantics = s.check_override;
  opts.link_faults.seed = fold(opts.seed, 0x11f5ULL);
  for (const auto& ev : s.events) {
    const Primitive& p = primitive_of(ev);
    if (p.configure != nullptr) p.configure(with_defaults(ev), opts);
  }

  const auto t0 = std::chrono::steady_clock::now();
  Deployment d(opts);
  for (const auto& ev : s.events) inject(with_defaults(ev), d, opts.seed);

  std::unique_ptr<OpenLoopEngine> engine;
  if (s.arrival != ArrivalKind::Closed) {
    OpenLoopOptions ol;
    ol.arrival = s.arrival;
    ol.clients = s.clients;
    ol.mean_think = s.think;
    ol.horizon = s.horizon;
    ol.write_fraction = s.write_fraction;
    ol.seed = fold(opts.seed, 0x09e7ULL);
    engine = std::make_unique<OpenLoopEngine>(d, ol);
    engine->launch();
  } else {
    MixedWorkloadOptions w;
    w.writes = s.writes;
    w.reads_per_reader = s.reads_per_reader;
    w.write_gap = s.write_gap;
    w.read_gap = s.read_gap;
    mixed_workload(d, w);
  }
  const std::uint64_t events = d.run();
  const auto t1 = std::chrono::steady_clock::now();

  CellVerdict v;
  v.name = s.name;
  v.protocol = s.protocol;
  v.backend = s.backend;
  v.expect_ok = s.expect_ok;
  v.events = events;
  v.net = d.stats();
  v.write_p95 = d.write_latency().p95();
  v.read_p95 = d.read_latency().p95();
  v.wall_ms =
      std::chrono::duration<double>(t1 - t0).count() * 1e3;

  const checker::CheckReport report =
      s.check_override ? d.check(*s.check_override) : d.check();
  v.violations = static_cast<int>(report.violations.size());
  if (!report.violations.empty()) v.first_violation = report.violations[0];

  if (std::getenv("RR_DEBUG_OPS")) {
    for (int shard = 0; shard < d.shards(); ++shard) {
      for (const auto& op : d.log(shard).snapshot()) {
        std::fprintf(stderr, "[op] %s client=%d ts=%llu [%llu, %llu] %s\n",
                     op.kind == checker::OpRecord::Kind::Write ? "W" : "R",
                     op.client, (unsigned long long)op.ts,
                     (unsigned long long)op.invoked_at,
                     (unsigned long long)op.responded_at,
                     op.complete ? "complete" : "STUCK");
      }
    }
  }
  // Per-shard composition: each shard's HistoryLog folds its own ops (the
  // retired prefix online, the residual on demand), so windowed and batch
  // cells compute identical values without ever materializing a retired op.
  std::uint64_t history_fp = checker::kHistoryFpSeed;
  for (int shard = 0; shard < d.shards(); ++shard) {
    const auto& log = d.log(shard);
    v.ops_complete += static_cast<int>(log.completed_total());
    v.ops_stuck +=
        static_cast<int>(log.recorded_total() - log.completed_total());
    history_fp = fold(history_fp, log.history_fingerprint());
    const auto wstats = d.checker_stats(shard);
    v.hist_peak_live = std::max(v.hist_peak_live, wstats.peak_live);
    v.hist_retired += wstats.retired;
  }
  const bool timed_out = d.backend().timed_out();
  v.ok = report.ok() && v.ops_stuck == 0 && !timed_out;
  if (v.first_violation.empty() && !v.ok) {
    if (timed_out) {
      v.first_violation = "liveness: run exceeded the " +
                          std::to_string(s.max_wall_ms) +
                          " ms deadline with " + std::to_string(v.ops_stuck) +
                          " operation(s) incomplete";
    } else if (v.ops_stuck > 0) {
      v.first_violation = "liveness: " + std::to_string(v.ops_stuck) +
                          " operation(s) never completed";
    }
  }

  if (s.backend == BackendKind::Sim) {
    const sim::World* world = d.backend().world();
    RR_ASSERT(world != nullptr);
    std::uint64_t fp = fold(world->schedule_fingerprint(), history_fp);
    fp = fold(fp, v.net.messages_sent);
    fp = fold(fp, v.net.messages_delivered);
    fp = fold(fp, v.net.messages_dropped);
    fp = fold(fp, v.net.bytes_sent);
    // History-shipping counters exist only on the regular protocols; fold
    // them only when nonzero so every other protocol's golden fingerprints
    // are untouched by their introduction.
    if (v.net.hist_slots_shipped != 0) fp = fold(fp, v.net.hist_slots_shipped);
    if (v.net.hist_resyncs != 0) fp = fold(fp, v.net.hist_resyncs);
    v.fingerprint = fp;
  }
  return v;
}

ShrinkResult SweepEngine::shrink(const Scenario& s) {
  ShrinkResult result;
  result.name = s.name;
  result.original_events = static_cast<int>(s.events.size());

  auto rerun_fails = [&result](const Scenario& sc, std::string* violation) {
    ++result.reruns;
    CellVerdict v = run_cell(sc);
    if (violation != nullptr) *violation = std::move(v.first_violation);
    return !v.ok;
  };

  const auto with_events = [&s](std::vector<FaultEvent> evs) {
    Scenario c = s;
    c.events = std::move(evs);
    return c;
  };

  std::string violation;
  const bool failing = rerun_fails(s, &violation);
  RR_ASSERT_MSG(failing, "shrink() requires a failing scenario");

  // The failure may not depend on the fault plan at all (e.g. a semantics
  // override stricter than the protocol's promise): probe the empty
  // schedule first. This is also ddmin's base case.
  if (!s.events.empty()) {
    std::string empty_violation;
    if (rerun_fails(with_events({}), &empty_violation)) {
      result.minimal = with_events({});
      result.first_violation = std::move(empty_violation);
      return result;
    }
  }

  // ddmin (Zeller & Hildebrandt): split the event list into n chunks; keep
  // any chunk (then any chunk complement) that still fails; refine the
  // granularity when neither helps. Terminates 1-minimal: at chunk size 1
  // the complement probes are exactly the drop-one tests, so when none of
  // them fails, removing any single remaining event makes the run pass.
  // Worst case O(events^2) reruns like the old greedy loop, but typically
  // O(events log events) -- large droppable noise goes in chunks, not one
  // event per rerun.
  std::vector<FaultEvent> events = s.events;
  std::size_t n = 2;
  while (events.size() >= 2) {
    const std::size_t chunk = (events.size() + n - 1) / n;
    bool reduced = false;
    std::string cand_violation;
    // Try each chunk alone.
    for (std::size_t i = 0; i * chunk < events.size() && !reduced; ++i) {
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(lo + chunk, events.size());
      if (hi - lo == events.size()) continue;
      std::vector<FaultEvent> subset(
          events.begin() + static_cast<std::ptrdiff_t>(lo),
          events.begin() + static_cast<std::ptrdiff_t>(hi));
      if (rerun_fails(with_events(subset), &cand_violation)) {
        events = std::move(subset);
        violation = std::move(cand_violation);
        n = 2;
        reduced = true;
      }
    }
    // Try each chunk's complement (redundant with the subsets at n == 2).
    if (!reduced && n > 2) {
      for (std::size_t i = 0; i * chunk < events.size() && !reduced; ++i) {
        const std::size_t lo = i * chunk;
        const std::size_t hi = std::min(lo + chunk, events.size());
        std::vector<FaultEvent> complement;
        complement.reserve(events.size() - (hi - lo));
        complement.insert(complement.end(), events.begin(),
                          events.begin() + static_cast<std::ptrdiff_t>(lo));
        complement.insert(complement.end(),
                          events.begin() + static_cast<std::ptrdiff_t>(hi),
                          events.end());
        if (complement.empty() || complement.size() == events.size()) {
          continue;
        }
        if (rerun_fails(with_events(complement), &cand_violation)) {
          events = std::move(complement);
          violation = std::move(cand_violation);
          n = std::max<std::size_t>(n - 1, 2);
          reduced = true;
        }
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;  // granularity 1 and nothing helps: 1-minimal
      n = std::min(n * 2, events.size());
    }
  }
  result.minimal = with_events(std::move(events));
  result.first_violation = std::move(violation);
  return result;
}

SweepReport SweepEngine::run(int workers) const {
  const std::size_t n = scenarios_.size();
  SweepReport report;
  report.cells.resize(n);

  int w = workers > 0
              ? workers
              : static_cast<int>(std::thread::hardware_concurrency());
  if (static_cast<std::size_t>(w) > n) w = static_cast<int>(n);
  if (w < 1) w = 1;
  report.workers = w;

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  // Cells are claimed by atomic index and written back by index, sharing no
  // mutable state: a DES cell's verdict is a pure function of its scenario,
  // so those rows are bit-identical for every worker count (pinned by
  // tests/test_sweep.cpp). Threads cells are wall-clock runs and vary
  // between executions regardless of worker count.
  auto drain = [this, n, &next, &report] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      report.cells[i] = run_cell(scenarios_[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(w) - 1);
  for (int i = 1; i < w; ++i) pool.emplace_back(drain);
  drain();
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < n; ++i) {
    if (report.cells[i].ok != report.cells[i].expect_ok) ++report.failed;
  }
  // Shrink the first few unexpectedly-failing DES cells (serially:
  // shrinking re-runs the cell many times, and failures should be rare).
  // Expected failures (committed fixtures, overload cells) are regression
  // anchors, already minimal; shrinking them again would be wasted work.
  int shrunk = 0;
  for (std::size_t i = 0; i < n && shrunk < kMaxShrinks; ++i) {
    if (report.cells[i].ok || !report.cells[i].expect_ok ||
        report.cells[i].backend != BackendKind::Sim) {
      continue;
    }
    report.shrinks.push_back(shrink(scenarios_[i]));
    ++shrunk;
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_ms =
      std::chrono::duration<double>(t1 - t0).count() * 1e3;
  return report;
}

bool SweepEngine::write_json(const SweepReport& report,
                             const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"bench\": \"scenario_sweep\",\n");
  std::fprintf(out,
               "  \"cells_total\": %zu,\n  \"cells_failed\": %d,\n"
               "  \"workers\": %d,\n  \"wall_ms\": %.1f,\n",
               report.cells.size(), report.failed, report.workers,
               report.wall_ms);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& c = report.cells[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"ok\": %s, \"expect_ok\": %s, "
        "\"violations\": %d, "
        "\"ops\": %d, \"stuck\": %d, \"events\": %llu, \"msgs\": %llu, "
        "\"bytes\": %llu, \"write_p95\": %llu, \"read_p95\": %llu, "
        "\"hist_peak\": %llu, \"hist_retired\": %llu, "
        "\"fingerprint\": \"%016llx\", \"wall_ms\": %.3f}%s\n",
        c.name.c_str(), c.ok ? "true" : "false",
        c.expect_ok ? "true" : "false", c.violations, c.ops_complete,
        c.ops_stuck, static_cast<unsigned long long>(c.events),
        static_cast<unsigned long long>(c.net.messages_sent),
        static_cast<unsigned long long>(c.net.bytes_sent),
        static_cast<unsigned long long>(c.write_p95),
        static_cast<unsigned long long>(c.read_p95),
        static_cast<unsigned long long>(c.hist_peak_live),
        static_cast<unsigned long long>(c.hist_retired),
        static_cast<unsigned long long>(c.fingerprint), c.wall_ms,
        i + 1 < report.cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"failures\": [\n");
  std::size_t emitted = 0;
  const std::size_t failures = static_cast<std::size_t>(report.failed);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& c = report.cells[i];
    if (c.ok == c.expect_ok) continue;
    const ShrinkResult* shrink = nullptr;
    for (const auto& sr : report.shrinks) {
      if (sr.name == c.name) shrink = &sr;
    }
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"violation\": \"%s\"",
                 c.name.c_str(), json_escape(c.first_violation).c_str());
    if (shrink != nullptr) {
      std::fprintf(out,
                   ", \"shrink\": {\"original_events\": %d, "
                   "\"minimal_events\": %zu, \"reruns\": %d}",
                   shrink->original_events, shrink->minimal.events.size(),
                   shrink->reruns);
    }
    // The (shrunk) scenario as DSL text: saved as a file, it replays with
    // sweep_cli --scenario FILE, whatever flags produced the sweep.
    const Scenario& failing =
        shrink != nullptr ? shrink->minimal : scenarios_[i];
    std::fprintf(out, ", \"scenario\": \"%s\"}%s\n",
                 json_escape(emit_scenario(failing)).c_str(),
                 ++emitted < failures ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace rr::harness
