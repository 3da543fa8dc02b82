// Scenario CLI: drive any protocol deployment from the command line, on
// either execution backend, with any number of register shards.
//
//   $ ./example_scenario_cli --protocol=safe --t=2 --b=2 --readers=3
//       --byzantine=forger --crashes=0 --writes=20 --reads=20
//       --backend=threads --shards=4 --chaos --seed=42
//   (one command line; wrapped here for width)
//
// Prints the run's operation log summary, round counts, network statistics
// and the per-shard consistency verdict. Useful for poking at corner
// configurations without writing a test. The protocol list comes from the
// protocol-traits registry, so newly registered protocols show up here
// automatically.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/chaos.hpp"
#include "harness/deployment.hpp"
#include "harness/protocol.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace {

using namespace rr;

std::string protocol_list() {
  std::string out;
  for (const auto& traits : harness::protocol_registry()) {
    if (!out.empty()) out += "|";
    out += traits.cli_name;
  }
  return out;
}

std::string strategy_list() {
  std::string out;
  for (const auto k : adversary::kAllStrategies) {
    if (!out.empty()) out += " ";
    out += adversary::to_string(k);
  }
  return out;
}

struct Args {
  std::string protocol = "safe";
  std::string backend = "des";
  int t = 2;
  int b = 1;
  int readers = 2;
  int shards = 1;
  std::string byzantine = "";  // strategy name, empty = none
  int byz_count = -1;          // default: full budget b when strategy given
  int crashes = 0;
  int writes = 10;
  int reads = 10;
  bool chaos = false;
  std::uint64_t seed = 1;
  std::size_t history_limit = 0;

  static std::optional<Args> parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* key) -> std::optional<std::string> {
        const std::string prefix = std::string("--") + key + "=";
        if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
        return std::nullopt;
      };
      if (auto v = value("protocol")) a.protocol = *v;
      else if (auto v1 = value("backend")) a.backend = *v1;
      else if (auto v2 = value("t")) a.t = std::atoi(v2->c_str());
      else if (auto v3 = value("b")) a.b = std::atoi(v3->c_str());
      else if (auto v4 = value("readers")) a.readers = std::atoi(v4->c_str());
      else if (auto vs = value("shards")) a.shards = std::atoi(vs->c_str());
      else if (auto v5 = value("byzantine")) a.byzantine = *v5;
      else if (auto v6 = value("byz-count")) a.byz_count = std::atoi(v6->c_str());
      else if (auto v7 = value("crashes")) a.crashes = std::atoi(v7->c_str());
      else if (auto v8 = value("writes")) a.writes = std::atoi(v8->c_str());
      else if (auto v9 = value("reads")) a.reads = std::atoi(v9->c_str());
      else if (auto va = value("seed")) a.seed = std::strtoull(va->c_str(), nullptr, 10);
      else if (auto vb = value("history-limit")) {
        a.history_limit = std::strtoull(vb->c_str(), nullptr, 10);
      } else if (arg == "--chaos") {
        a.chaos = true;
      } else if (arg == "--help" || arg == "-h") {
        return std::nullopt;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return std::nullopt;
      }
    }
    return a;
  }
};

void usage() {
  std::printf(
      "usage: example_scenario_cli [--protocol=%s]\n"
      "  [--backend=des|threads|net] [--shards=K]\n"
      "  [--t=N] [--b=N] [--readers=N] [--byzantine=STRATEGY] "
      "[--byz-count=N]\n"
      "  [--crashes=N] [--writes=N] [--reads=N] [--history-limit=N] "
      "[--chaos] [--seed=N]\n"
      "strategies: %s\n",
      protocol_list().c_str(), strategy_list().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = Args::parse(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  const Args& a = *parsed;

  const auto protocol = harness::protocol_from_name(a.protocol);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol '%s' (known: %s)\n",
                 a.protocol.c_str(), protocol_list().c_str());
    return 2;
  }
  const auto backend = harness::backend_from_name(a.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend '%s' (known: %s)\n",
                 a.backend.c_str(), harness::backend_names().c_str());
    return 2;
  }
  if (a.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }

  const auto& traits = harness::protocol_traits(*protocol);
  harness::DeploymentOptions opts;
  opts.protocol = *protocol;
  opts.backend = *backend;
  opts.shards = a.shards;
  opts.res = traits.resilience_for(a.t, a.b, a.readers);
  opts.seed = a.seed;
  opts.history_limit = a.history_limit;
  int byz = 0;
  if (!a.byzantine.empty()) {
    const auto strategy = adversary::strategy_from_name(a.byzantine);
    if (!strategy) {
      std::fprintf(stderr, "unknown strategy '%s' (known: %s)\n",
                   a.byzantine.c_str(), strategy_list().c_str());
      return 2;
    }
    byz = a.byz_count >= 0 ? a.byz_count : a.b;
    opts.faults = harness::FaultPlan::mixed(byz, *strategy, a.crashes);
  } else if (a.crashes > 0) {
    opts.faults = harness::FaultPlan::crash_only(a.crashes);
  }

  std::printf("deploying %s on %s: S=%d t=%d b=%d readers=%d shards=%d",
              traits.name, harness::to_string(*backend),
              opts.res.num_objects, opts.res.t, opts.res.b, a.readers,
              a.shards);
  if (byz > 0) std::printf(", %d x %s", byz, a.byzantine.c_str());
  if (a.crashes > 0) std::printf(", %d crashed", a.crashes);
  if (a.chaos) std::printf(", chaos on");
  std::printf(", seed=%llu\n", static_cast<unsigned long long>(a.seed));

  harness::Deployment d(opts);
  if (a.chaos) {
    harness::ChaosOptions chaos;
    chaos.max_held = opts.res.t - opts.faults.total_faulty();
    chaos.seed = a.seed * 31 + 7;
    if (chaos.max_held > 0) harness::inject_chaos(d, chaos);
  }
  harness::MixedWorkloadStats stats;
  harness::MixedWorkloadOptions w;
  w.writes = a.writes;
  w.reads_per_reader = a.reads;
  harness::mixed_workload(d, w, &stats);
  const auto events = d.run();

  harness::Table table({"metric", "writes", "reads"});
  table.add_row("operations", stats.writes.count(), stats.reads.count());
  table.add_row("rounds (min/max)",
                std::to_string(stats.writes.rounds_min()) + " / " +
                    std::to_string(stats.writes.rounds_max()),
                std::to_string(stats.reads.rounds_min()) + " / " +
                    std::to_string(stats.reads.rounds_max()));
  table.add_row("latency p50 us", stats.writes.latency_p50() / 1000.0,
                stats.reads.latency_p50() / 1000.0);
  table.add_row("latency p95 us", stats.writes.latency_p95() / 1000.0,
                stats.reads.latency_p95() / 1000.0);
  table.add_row("latency p99 us", stats.writes.latency_p99() / 1000.0,
                stats.reads.latency_p99() / 1000.0);
  table.add_row("latency max us", stats.writes.latency_max() / 1000.0,
                stats.reads.latency_max() / 1000.0);
  table.print();

  // The deployment-level histogram sees every operation (all shards, all
  // readers) in backend clock units -- virtual ns on the DES, wall ns on
  // threads.
  const auto& wl = d.write_latency();
  const auto& rl = d.read_latency();
  std::printf("latency histogram (us): writes p50/p95/p99/max = "
              "%.1f/%.1f/%.1f/%.1f, reads = %.1f/%.1f/%.1f/%.1f\n",
              wl.p50() / 1000.0, wl.p95() / 1000.0, wl.p99() / 1000.0,
              wl.max() / 1000.0, rl.p50() / 1000.0, rl.p95() / 1000.0,
              rl.p99() / 1000.0, rl.max() / 1000.0);

  const auto net = d.stats();
  std::printf("network: %llu msgs (%llu bytes) sent, %llu delivered, %llu "
              "dropped; %llu events\n",
              static_cast<unsigned long long>(net.messages_sent),
              static_cast<unsigned long long>(net.bytes_sent),
              static_cast<unsigned long long>(net.messages_delivered),
              static_cast<unsigned long long>(net.messages_dropped),
              static_cast<unsigned long long>(events));

  int incomplete = 0;
  for (int s = 0; s < d.shards(); ++s) {
    for (const auto& op : d.log(s).snapshot()) {
      if (!op.complete) ++incomplete;
    }
  }
  const auto report = d.check();
  std::printf("consistency (%s, %d shard%s): %s; %d reads pinned, %d ops "
              "stuck\n",
              traits.name, d.shards(), d.shards() == 1 ? "" : "s",
              report.ok() ? "OK" : "VIOLATED", report.reads_checked,
              incomplete);
  if (!report.ok()) {
    std::printf("%s\n", report.summary().c_str());
    return 1;
  }
  return incomplete == 0 ? 0 : 1;
}
