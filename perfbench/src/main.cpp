// The repository benchmark: one command, a workload name and a seed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 measures the workload untraced for S one-second windows, spread
// over several deployments set up in turn (setup_s is the lower-quartile
// set-up), verifies each recorded history with the windowed checker and
// prints every end-to-end metric, each from the run's best-decile window.
// --trace 1 measures the plain assembly and a traced one (every process
// behind a timing decorator) in alternating windows, prints the per-layer
// table and the codec replay, writes the Chrome trace to FILE and prints
// every per-layer metric. Both modes end with the DES parity self-check.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero on any checker violation, ill-formed history,
// stalled run, failed op or parity mismatch.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec_replay.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "load.hpp"
#include "netio/mesh.hpp"
#include "rig.hpp"
#include "sim/world.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace rh = rr::harness;

constexpr int kInstances = 10;       ///< deployments set up per untraced run
constexpr double kWindowShare = 0.1;  ///< a run reports its best-decile window
constexpr double kSetupShare = 0.25;  ///< ... and its lower-quartile set-up
constexpr int kParityOpsPerStream = 300;
constexpr std::size_t kSpansPerThread = 4096;
constexpr std::size_t kSamplesPerThread = 2048;
constexpr double kCodecBudgetMs = 25.0;
constexpr std::uint64_t kWindowNs = 1'000'000'000;

struct Workload {
  std::string name;
  RigConfig rig;
  std::optional<OpenLoad> open;  ///< empty: closed loop over every client
  std::uint64_t warmup{0};       ///< ops per station, or arrivals
  const char* substrate{""};     ///< src/ module behind Context::send
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, int seconds) {
  Workload w;
  w.name = name;
  w.rig.seed = seed;
  w.rig.max_wall_ms = static_cast<std::uint64_t>(seconds + 60) * 1000;
  if (name == "net-robust-read") {
    // The paper's case on real sockets: b = 1 of S = 4 objects forges.
    w.rig.backend = rh::BackendKind::Net;
    w.rig.protocol = rh::Protocol::Safe;
    w.rig.res = rr::Resilience::optimal(1, 1, 2);
    w.rig.byzantine[0] = rr::adversary::StrategyKind::Forger;
    w.warmup = 500;
    w.substrate = "netio";
  } else if (name == "threads-chaos-mixed") {
    // Regular storage, S = 6: one forger, one crashed object, and seeded
    // reorder on every channel. Reordering is legal in the paper's model;
    // duplication is not, and under it gv06-regular was seen to return a
    // stale read about once per ten minutes, so this workload leaves it out.
    w.rig.backend = rh::BackendKind::Threads;
    w.rig.protocol = rh::Protocol::Regular;
    w.rig.res = rr::Resilience::optimal(2, 1, 1);
    w.rig.byzantine[0] = rr::adversary::StrategyKind::Forger;
    w.rig.crashed = {1};
    w.rig.link_faults.reorder.p = 0.05;
    w.rig.link_faults.seed = rr::mix64(seed ^ 0x11f7ULL);
    w.warmup = 1000;
    w.substrate = "runtime";
  } else if (name == "des-open-sharded") {
    // 4 registers x (1 writer + 3 readers) over S = 4 objects, one forger,
    // bursty open-loop arrivals from 1.2M clients.
    w.rig.backend = rh::BackendKind::Sim;
    w.rig.protocol = rh::Protocol::Safe;
    w.rig.res = rr::Resilience::optimal(1, 1, 3);
    w.rig.shards = 4;
    w.rig.byzantine[0] = rr::adversary::StrategyKind::Forger;
    w.rig.delay_lo = 1'000;
    w.rig.delay_hi = 10'000;
    w.rig.trace_fingerprint = true;
    w.open = OpenLoad{};
    w.warmup = 10'000;
    w.substrate = "sim";
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_of(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Nearest-rank quantile, exact (no histogram buckets), in microseconds.
double quantile_us(std::vector<Time> v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]) / 1000.0;
}

/// The sample that `share` of the samples beat, best first: the highest
/// when `higher` is better, else the lowest.
double best_share(std::vector<double> v, double share, bool higher) {
  std::sort(v.begin(), v.end());
  if (higher) std::reverse(v.begin(), v.end());
  return v[static_cast<std::size_t>(share * static_cast<double>(v.size() - 1))];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_stats(const rr::net::NetStats& a, const rr::net::NetStats& b) {
  return a.messages_sent == b.messages_sent &&
         a.messages_delivered == b.messages_delivered &&
         a.messages_dropped == b.messages_dropped &&
         a.bytes_sent == b.bytes_sent && a.messages_lost == b.messages_lost &&
         a.messages_duplicated == b.messages_duplicated &&
         a.messages_reordered == b.messages_reordered &&
         a.messages_by_type == b.messages_by_type &&
         a.bytes_by_type == b.bytes_by_type &&
         a.hist_slots_shipped == b.hist_slots_shipped &&
         a.hist_resyncs == b.hist_resyncs;
}

/// What must match between two DES runs of the same schedule.
struct Fingerprint {
  std::uint64_t schedule{0};
  std::uint64_t history{0};
  rr::net::NetStats stats{};

  bool operator==(const Fingerprint& o) const {
    return schedule == o.schedule && history == o.history &&
           same_stats(stats, o.stats);
  }
};

Fingerprint fingerprint_of(Rig& rig) {
  return {rig.backend().world()->schedule_fingerprint(),
          rig.history_fingerprint(), rig.backend().stats()};
}

struct Verdict {
  bool ok{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void fail(const std::string& why) {
    ok = false;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }
};

// ---------------------------------------------------------------------------
// A set-up deployment: rig + load generator (+ tracer), warmed up.

struct Instance {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<LoadGenerator> load;
  std::unique_ptr<Rig> rig;  // last: destroyed first, joining its threads
  double setup_s{0};
};

Instance set_up(const Workload& w, bool traced, Verdict& verdict) {
  Instance s;
  const std::uint64_t t0 = now_ns();
  if (traced) {
    s.tracer = std::make_unique<Tracer>(client_count(w.rig), kSpansPerThread,
                                        kSamplesPerThread);
  }
  s.rig = std::make_unique<Rig>(w.rig, s.tracer.get());
  s.load = std::make_unique<LoadGenerator>(*s.rig, w.open, w.rig.seed);
  const PhaseResult warm = s.load->run_phase(StopRule{0, w.warmup});
  s.setup_s = seconds_of(now_ns() - t0);
  if (warm.timed_out || warm.completed != warm.issued) {
    verdict.fail("warmup stalled (" + std::to_string(warm.completed) + "/" +
                 std::to_string(warm.issued) + " ops completed)");
  }
  if (s.tracer) s.tracer->reset();
  return s;
}

double ops_per_s(const PhaseResult& r) {
  return ratio(static_cast<double>(r.completed), seconds_of(r.wall_ns));
}

/// The end-to-end metrics of one window, in end_to_end() output order.
constexpr std::size_t kWindowMetrics = 6;
using WindowValues = std::array<double, kWindowMetrics>;

WindowValues window_values(const PhaseResult& r) {
  return {ops_per_s(r),
          quantile_us(r.read_lat, 0.50),
          quantile_us(r.read_lat, 0.99),
          quantile_us(r.write_lat, 0.50),
          quantile_us(r.write_lat, 0.99),
          ratio(static_cast<double>(r.cpu_ns) / 1000.0,
                static_cast<double>(r.completed))};
}

/// The measured phase of one instance, run as windows of about a second:
/// each window quiesces, and a run reports its best-decile window, which
/// keeps a spell of contention on the machine from moving the whole run.
class Measurement {
 public:
  explicit Measurement(Instance& s)
      : s_(s), before_(s.rig->backend().stats()) {}

  /// Runs one window until `stop`; `keep_lag` keeps its invoke-lag samples.
  void window(const StopRule& stop, bool keep_lag) {
    if (total.timed_out) return;  // the backend has stopped
    const PhaseResult r = s_.load->run_phase(stop);
    windows.push_back(window_values(r));
    arrivals.push_back(r.arrivals);
    reads += r.read_lat.size();
    writes += r.write_lat.size();
    PhaseResult& t = total;
    t.issued += r.issued;
    t.completed += r.completed;
    t.reads += r.reads;
    t.read_rounds += r.read_rounds;
    t.arrivals += r.arrivals;
    t.shed += r.shed;
    t.max_queue_depth = std::max(t.max_queue_depth, r.max_queue_depth);
    t.wall_ns += r.wall_ns;
    t.cpu_ns += r.cpu_ns;
    t.sys_ns += r.sys_ns;
    t.events += r.events;
    t.timed_out = r.timed_out;
    if (keep_lag) t.lag.insert(t.lag.end(), r.lag.begin(), r.lag.end());
  }

  /// Closes the measurement: traffic totals, failed ops, the checker.
  void finish(Verdict& verdict) {
    stats = stats_delta(before_, s_.rig->backend().stats());
    verdict.attempted += total.issued;
    verdict.failed += total.issued - total.completed;
    if (total.timed_out) {
      verdict.fail("backend timed out (run did not quiesce)");
    }
    if (total.completed != total.issued) {
      verdict.fail(std::to_string(total.issued - total.completed) +
                   " ops not completed");
    }
    const auto report = s_.rig->check();
    if (!report.ok()) verdict.fail("checker: " + report.summary());
  }

  PhaseResult total;  ///< counts and costs over all windows (no latencies)
  rr::net::NetStats stats{};            ///< set by finish()
  std::vector<std::uint64_t> arrivals;  ///< per window
  std::vector<WindowValues> windows;
  std::size_t reads{0};
  std::size_t writes{0};

 private:
  Instance& s_;
  rr::net::NetStats before_;
};

StopRule window_from_now() { return StopRule{now_ns() + kWindowNs, 0}; }

// ---------------------------------------------------------------------------
// Parity self-check: the benchmark's assembly, closed-loop on the DES, must
// reproduce harness::Deployment + write_stream/read_stream exactly -- plain
// and behind the timing decorators.

void parity_check(std::uint64_t seed, Verdict& verdict) {
  RigConfig cfg = make_workload("des-open-sharded", seed, 0)->rig;
  const int ops = kParityOpsPerStream;

  rh::Deployment d(deployment_options(cfg));
  for (int s = 0; s < cfg.shards; ++s) {
    rh::write_stream(d, s, 0, 0, ops);
    for (int j = 0; j < cfg.res.num_readers; ++j) {
      rh::read_stream(d, s, j, 0, 0, ops);
    }
  }
  d.run();
  Fingerprint ref{d.world().schedule_fingerprint(), rr::checker::kHistoryFpSeed,
                  d.stats()};
  for (int s = 0; s < cfg.shards; ++s) {
    ref.history = rr::checker::fp_fold(ref.history,
                                       d.log(s).history_fingerprint());
  }

  for (const bool traced : {false, true}) {
    std::unique_ptr<Tracer> tracer;
    if (traced) tracer = std::make_unique<Tracer>(client_count(cfg), 0, 0);
    Rig rig(cfg, tracer.get());
    LoadGenerator load(rig, std::nullopt, seed);
    const PhaseResult r =
        load.run_phase(StopRule{0, static_cast<std::uint64_t>(ops)});
    if (!(fingerprint_of(rig) == ref) || r.completed != r.issued) {
      verdict.fail(std::string("DES parity: the ") +
                   (traced ? "traced" : "plain") +
                   " assembly diverges from harness::Deployment");
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.ok ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> end_to_end(const Workload& w, std::uint64_t seed,
                               int seconds, Verdict& verdict) {
  // The machine is shared, and a busy neighbour slows this process by up to
  // 60% for seconds to minutes at a time (single-threaded DES: 46K vs 76K
  // ops/s from one window to the next at the same events per op). It only
  // ever slows things down, so a run reports its best-decile window and its
  // lower-quartile set-up: a slower program moves every sample, a spell of
  // contention only some. A deployment on threads or sockets also keeps the
  // latency it started with (on net, write p99 ~260 us in one and ~310 us in
  // the next, in alternating windows), so the run is spread over kInstances
  // deployments, each set up in turn, measured for its share of the windows
  // and torn down; this also spreads the set-ups over the run.
  std::vector<double> setups;
  std::vector<WindowValues> windows;
  double setup_rss_mb = 0;
  std::uint64_t completed = 0;
  std::uint64_t wall_ns = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  for (int i = 0; i < kInstances; ++i) {
    Instance s = set_up(w, false, verdict);
    setups.push_back(s.setup_s);
    // Memory is taken after one set-up, a fixed amount of work: the peak over
    // the whole run also scales with how many ops a deployment got through
    // (the regular storage's resident memory grows with every op), so it
    // moves with machine speed and stays in the summary line below.
    if (i == 0) setup_rss_mb = peak_rss_mb();
    Measurement m(s);
    for (int k = i * seconds / kInstances; k < (i + 1) * seconds / kInstances;
         ++k) {
      m.window(window_from_now(), false);
    }
    m.finish(verdict);
    windows.insert(windows.end(), m.windows.begin(), m.windows.end());
    completed += m.total.completed;
    wall_ns += m.total.wall_ns;
    reads += m.reads;
    writes += m.writes;
  }
  std::printf("%s seed=%llu: %llu ops (%zu reads, %zu writes) in %.3f s, "
              "%zu windows over %d deployments, peak RSS %.1f MB\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(completed), reads, writes,
              seconds_of(wall_ns), windows.size(), kInstances, peak_rss_mb());
  struct Reported {
    const char* name;
    const char* unit;
    bool higher;  ///< higher is better
  };
  static constexpr std::array<Reported, kWindowMetrics> kReported = {{
      {"ops_per_s", "1/s", true},
      {"read_p50_us", "us", false},
      {"read_p99_us", "us", false},
      {"write_p50_us", "us", false},
      {"write_p99_us", "us", false},
      {"cpu_us_per_op", "us", false},
  }};
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kWindowMetrics; ++i) {
    std::vector<double> per_window;
    for (const auto& v : windows) per_window.push_back(v[i]);
    const Reported& r = kReported[i];
    out.push_back({r.name, best_share(per_window, kWindowShare, r.higher),
                   r.unit});
  }
  out.push_back({"setup_s", best_share(setups, kSetupShare, false), "s"});
  out.push_back({"setup_rss_mb", setup_rss_mb, "MB"});
  return out;
}

std::vector<Metric> per_layer(const Workload& w, int seconds,
                              const std::string& trace_out, Verdict& verdict) {
  // Two live deployments, the same assembly with and without decorators,
  // measured in alternating windows so machine drift hits both alike. Half
  // the run goes to each, so a traced run costs what an untraced one does.
  // On the DES each traced window replays its untraced twin's arrival
  // count, so the two schedules must end bit-identical.
  const bool des = w.rig.backend == rh::BackendKind::Sim;
  Instance bare = set_up(w, false, verdict);
  Instance s = set_up(w, true, verdict);
  Measurement plain(bare);
  Measurement m(s);
  for (int k = 0; k < std::max(1, seconds / 2); ++k) {
    if (des) {
      plain.window(window_from_now(), false);
      m.window(StopRule{0, plain.arrivals.back()}, true);
    } else if (k % 2 == 0) {  // alternate which goes first
      plain.window(window_from_now(), false);
      m.window(window_from_now(), true);
    } else {
      m.window(window_from_now(), true);
      plain.window(window_from_now(), false);
    }
  }
  plain.finish(verdict);
  m.finish(verdict);
  const PhaseResult& r = m.total;
  if (des && !(fingerprint_of(*s.rig) == fingerprint_of(*bare.rig))) {
    verdict.fail("traced and untraced DES runs have different fingerprints");
  }

  const auto totals = s.tracer->totals();
  const double delivered = static_cast<double>(m.stats.messages_delivered);
  const double sent = static_cast<double>(m.stats.messages_sent);
  const double ops = static_cast<double>(r.completed);
  const auto& at = [&](Layer l) { return totals[static_cast<std::size_t>(l)]; };
  const auto step_ns = [&](Layer l) {
    return ratio(static_cast<double>(at(l).self_ns),
                 static_cast<double>(at(l).count));
  };
  std::uint64_t self_sum = 0;
  for (const auto& t : totals) self_sum += t.self_ns;
  const double residual_cpu =
      static_cast<double>(r.cpu_ns) - static_cast<double>(self_sum);

  // Per-layer table: self time per delivered message and as a share of the
  // phase's process CPU (threads, net) or wall time (the single-threaded
  // DES). No layer may claim more time than that denominator.
  const double denom = static_cast<double>(des ? r.wall_ns : r.cpu_ns);
  std::printf("\nper-layer self time, %s, traced phase: %.3f s wall, %.3f s "
              "CPU, %.0f msgs delivered, %.0f ops\n",
              w.name.c_str(), seconds_of(r.wall_ns), seconds_of(r.cpu_ns),
              delivered, ops);
  std::printf("  %-10s %12s %12s %12s %14s %9s\n", "layer", "spans", "self_ms",
              "ns/span", "ns/msg", des ? "%wall" : "%cpu");
  for (std::size_t i = 0; i < kLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    const char* name = layer == Layer::Send ? w.substrate : layer_name(layer);
    const double self = static_cast<double>(totals[i].self_ns);
    std::printf("  %-10s %12llu %12.1f %12.1f %14.1f %8.1f%%\n", name,
                static_cast<unsigned long long>(totals[i].count), self / 1e6,
                step_ns(layer), ratio(self, delivered),
                100.0 * ratio(self, denom));
    if (self > denom) {
      verdict.fail(std::string("layer ") + name +
                   " self time exceeds the phase's measured time");
    }
  }
  std::printf("  %-10s %12s %12.1f %12s %14.1f %8.1f%%\n",
              (std::string(w.substrate) + "*").c_str(), "-",
              residual_cpu / 1e6, "-", ratio(residual_cpu, delivered),
              100.0 * ratio(residual_cpu, static_cast<double>(r.cpu_ns)));
  std::printf("  (* substrate residual: process CPU outside every span)\n");

  const CodecReplay codec = replay_codec(s.tracer->samples(), kCodecBudgetMs);
  if (!codec.ok) verdict.fail("codec replay: a sampled message did not round-trip");
  std::printf("\ncodec replay over %zu delivered messages (wire layer):\n",
              codec.all.count);
  std::printf("  %-16s %8s %10s %10s %10s %10s\n", "type", "count",
              "encode_ns", "decode_ns", "frame_ns", "bytes");
  auto rows = codec.per_type;
  rows.push_back(codec.all);
  for (const auto& row : rows) {
    std::printf("  %-16s %8zu %10.1f %10.1f %10.1f %10.1f\n", row.type.c_str(),
                row.count, row.encode_ns, row.decode_ns, row.frame_ns,
                row.bytes);
  }

  double connects = 0;
  double frame_errors = 0;
  if (auto* mesh = s.rig->backend().mesh()) {
    const auto t = mesh->transport();
    connects = static_cast<double>(t.connects);
    frame_errors = static_cast<double>(t.corrupt_frames + t.partial_timeouts +
                                       t.handshake_failures);
  }
  const double overhead = 1.0 - ratio(ops_per_s(r), ops_per_s(plain.total));
  std::printf("\ntrace.overhead_frac = %.4f (untraced %.0f ops/s, traced %.0f "
              "ops/s)\n",
              overhead, ops_per_s(plain.total), ops_per_s(r));

  if (!trace_out.empty()) {
    if (write_chrome_trace(*s.tracer, trace_out, w.substrate)) {
      std::printf("chrome trace: %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   trace_out.c_str());
    }
  }

  const double reads = static_cast<double>(r.reads);
  const double per_kmsg = 1000.0 / std::max(1.0, sent);
  return {
      {"substrate.send_ns", step_ns(Layer::Send), "ns"},
      {"substrate.cpu_ns_per_msg", ratio(residual_cpu, delivered), "ns"},
      {"substrate.sys_ns_per_msg",
       ratio(static_cast<double>(r.sys_ns), delivered), "ns"},
      {"substrate.events_per_op", ratio(static_cast<double>(r.events), ops),
       "count"},
      {"netio.connects", connects, "count"},
      {"netio.frame_errors", frame_errors, "count"},
      {"wire.encode_ns_per_msg", codec.all.encode_ns, "ns"},
      {"wire.decode_ns_per_msg", codec.all.decode_ns, "ns"},
      {"wire.frame_ns_per_msg", codec.all.frame_ns, "ns"},
      {"wire.bytes_per_msg", codec.all.bytes, "B"},
      {"net.reorder_per_kmsg",
       static_cast<double>(m.stats.messages_reordered) * per_kmsg, "1/kmsg"},
      {"net.dropped_per_kmsg",
       static_cast<double>(m.stats.messages_dropped + m.stats.messages_lost) *
           per_kmsg,
       "1/kmsg"},
      {"core.step_ns", step_ns(Layer::Core), "ns"},
      {"core.read_rounds", ratio(static_cast<double>(r.read_rounds), reads),
       "count"},
      {"core.msgs_per_op", ratio(sent, ops), "count"},
      {"core.bytes_per_op",
       ratio(static_cast<double>(m.stats.bytes_sent), ops), "B"},
      {"objects.step_ns", step_ns(Layer::Objects), "ns"},
      {"objects.hist_slots_per_read",
       ratio(static_cast<double>(m.stats.hist_slots_shipped), reads), "count"},
      {"adversary.step_ns", step_ns(Layer::Adversary), "ns"},
      {"checker.record_ns_per_op",
       ratio(static_cast<double>(at(Layer::Checker).self_ns), ops), "ns"},
      {"checker.peak_live", static_cast<double>(s.rig->checker_peak_live()),
       "count"},
      {"harness.invoke_lag_p99_us", quantile_us(r.lag, 0.99), "us"},
      {"harness.max_queue_depth", static_cast<double>(r.max_queue_depth),
       "count"},
      {"harness.shed_frac",
       ratio(static_cast<double>(r.shed), static_cast<double>(r.arrivals)),
       "frac"},
      {"trace.overhead_frac", overhead, "frac"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload net-robust-read|"
               "threads-chaos-mixed|des-open-sharded --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atoi(val);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds < 1) return usage();
  const auto w = make_workload(workload, seed, seconds);
  if (!w) return usage();

  Verdict verdict;
  const std::vector<Metric> metrics =
      trace ? per_layer(*w, seconds, trace_out, verdict)
            : end_to_end(*w, seed, seconds, verdict);
  // Last, so that its deployments are not in the set-up memory reading.
  parity_check(seed, verdict);
  print_result(verdict, metrics);
  return verdict.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
