#include "harness/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/rng.hpp"
#include "harness/primitives.hpp"

namespace rr::harness {
namespace {

/// The (t, b) budget pool a batch samples. (1, 0) exercises the crash-only
/// corner; (2, 2) pushes fastwrite to S = 2t+2b+1 = 9 objects.
constexpr std::pair<int, int> kBudgets[] = {{1, 0}, {1, 1}, {2, 1}, {2, 2}};

}  // namespace

ScenarioFuzzer::ScenarioFuzzer(FuzzOptions opts) : opts_(std::move(opts)) {}

Scenario ScenarioFuzzer::generate(std::uint64_t index) const {
  // One private stream per (batch seed, index): scenarios are independent
  // of each other and of how many were generated before them.
  Rng rng(mix64(opts_.seed) ^ mix64(index + 0x5ceda7105cULL));

  Scenario s;
  s.name = "fuzz-" + std::to_string(opts_.seed) + "-" + std::to_string(index);

  const bool overload = rng.chance(opts_.overload_rate);

  static const std::vector<Protocol> kAllProtocols = [] {
    std::vector<Protocol> v;
    for (const auto& t : protocol_registry()) v.push_back(t.id);
    return v;
  }();
  const auto& protocols =
      opts_.protocols.empty() ? kAllProtocols : opts_.protocols;
  s.protocol = protocols[rng.index(protocols.size())];

  static const std::vector<BackendKind> kBothBackends{BackendKind::Sim,
                                                     BackendKind::Threads};
  const auto& backends =
      opts_.backends.empty() ? kBothBackends : opts_.backends;
  // Overload cells stay on the DES so the stall verdict (and its shrink)
  // is deterministic.
  s.backend = overload ? BackendKind::Sim : backends[rng.index(backends.size())];

  const auto [t, b] = kBudgets[rng.index(std::size(kBudgets))];
  s.t = t;
  s.b = b;
  s.readers = static_cast<int>(rng.uniform(1, 3));
  s.shards = rng.chance(0.2) ? 2 : 1;
  const Resilience res =
      protocol_traits(s.protocol).resilience_for(s.t, s.b, s.readers);
  FuzzDraw draw{rng, res, s.backend};

  // Workload mix. writes >= 3 and write_gap >= 5000 guarantee an operation
  // is invoked after the last overload crash (pinned below 9000), so an
  // overload cell can never complete its workload before the quorum dies.
  s.writes = static_cast<int>(rng.uniform(3, 8));
  s.reads_per_reader = static_cast<int>(rng.uniform(2, 6));
  s.write_gap = rng.uniform(5'000, 9'000);
  s.read_gap = rng.uniform(2'000, 5'000);
  s.check_override = opts_.check_override;
  s.expect_ok = !overload;
  // The forced low bit is part of the draw stream: clearing it would
  // change every batch's seeds, and so its fingerprints.
  s.run_seed = rng() | 1;
  // Threads cells carry a generous deadline: a generator or runtime bug
  // then degrades to a liveness verdict instead of hanging the lane.
  if (s.backend != BackendKind::Sim) s.max_wall_ms = 20'000;

  // Open-loop arrival draw (~30% of non-overload cells): shape, population
  // and think time together are the client-churn knob -- diurnal ramps the
  // arrival rate across the horizon, bursty turns the population on and off
  // in duty cycles. Overload cells stay closed-loop: the stall argument
  // above leans on the chained workload's gap structure. The windowed
  // checker toggles independently (~50%), including over closed loops, so
  // the fuzz lane continuously cross-checks streaming against batch
  // verdicts.
  if (!overload && rng.chance(0.3)) {
    constexpr ArrivalKind kOpen[] = {ArrivalKind::Poisson,
                                     ArrivalKind::Bursty,
                                     ArrivalKind::Diurnal};
    s.arrival = kOpen[rng.index(std::size(kOpen))];
    s.clients = rng.uniform(64, 512);
    s.think = rng.uniform(20'000, 80'000);
    s.horizon = rng.uniform(60'000, 200'000);
    s.write_fraction = 0.05 * static_cast<double>(rng.uniform(2, 8));
  }
  if (!overload && rng.chance(0.5)) {
    s.checker_window =
        static_cast<std::size_t>(1) << rng.uniform(4, 7);  // 16..128
  }

  if (overload) {
    // t+1 timed crashes: every protocol waits on S - t live objects, so
    // one crash past the budget makes quorums permanently unreachable.
    const int n = res.t + 1;
    for (const int o : draw.objects(n)) {
      FaultEvent ev;
      ev.kind = FaultEvent::Kind::Crash;
      ev.object = o;
      ev.at = rng.uniform(3'000, 9'000);
      s.events.push_back(std::move(ev));
    }
    return s;
  }

  // Budgeted faulty set: byz_n <= b and byz_n + crash_n <= t, on distinct
  // objects, so the schedule respects the model by construction.
  const int byz_n =
      res.b > 0 ? static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(
                                                      res.b)))
                : 0;
  const int crash_n = static_cast<int>(
      rng.uniform(0, static_cast<std::uint64_t>(res.t - byz_n)));
  const auto faulty = draw.objects(byz_n + crash_n);
  for (int i = 0; i < byz_n; ++i) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Byzantine;
    ev.object = faulty[static_cast<std::size_t>(i)];
    ev.strategy = adversary::kAllStrategies[rng.index(
        std::size(adversary::kAllStrategies))];
    s.events.push_back(std::move(ev));
  }
  for (int i = 0; i < crash_n; ++i) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Crash;
    ev.object = faulty[static_cast<std::size_t>(byz_n + i)];
    ev.at = rng.uniform(2'000, 20'000);
    s.events.push_back(std::move(ev));
  }

  // Asynchrony extras, drawn from the table's rows that have a fuzz draw,
  // run on this backend, and are not a once-per-scenario rule already used.
  const int extras = static_cast<int>(rng.uniform(0, 3));
  for (int i = 0; i < extras; ++i) {
    std::vector<const Primitive*> pool;
    for (const auto& p : primitives()) {
      const auto same = [&p](const FaultEvent& e) { return e.kind == p.kind; };
      if (p.draw != nullptr && supports(p, s.backend) &&
          !(p.once && std::any_of(s.events.begin(), s.events.end(), same))) {
        pool.push_back(&p);
      }
    }
    const Primitive& p = *pool[rng.index(pool.size())];
    FaultEvent ev;
    ev.kind = p.kind;
    p.draw(draw, ev);
    s.events.push_back(std::move(ev));
  }
  return s;
}

std::vector<Scenario> ScenarioFuzzer::batch() const {
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(opts_.count));
  for (int i = 0; i < opts_.count; ++i) {
    out.push_back(generate(static_cast<std::uint64_t>(i)));
  }
  return out;
}

std::vector<std::string> write_fixtures(
    const std::vector<Scenario>& scenarios, const SweepReport& report,
    const std::string& dir) {
  std::vector<std::string> written;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const auto save = [&](Scenario s, const std::string& file) {
    s.expect_ok = false;
    const auto path = (std::filesystem::path(dir) / file).string();
    if (save_scenario_file(s, path)) written.push_back(path);
  };
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const Scenario& src = scenarios[i];
    // Only a genuine new failure becomes a fixture: an expected-fail cell
    // that unexpectedly *passed* has no failure to pin.
    if (report.cells[i].ok || !src.expect_ok) continue;
    save(src, src.name + ".scn");
    for (const auto& sh : report.shrinks) {
      if (sh.name != src.name) continue;
      Scenario min = sh.minimal;
      min.name += "-min";
      save(std::move(min), src.name + ".min.scn");
    }
  }
  return written;
}

FuzzResult run_fuzz(const FuzzOptions& opts, int workers) {
  FuzzResult out;
  const SweepEngine engine(ScenarioFuzzer(opts).batch());
  out.report = engine.run(workers);
  for (const auto& v : out.report.cells) {
    if (!v.expect_ok) ++out.overload_cells;
    if (v.ok != v.expect_ok) out.unexpected.push_back(v.name);
  }
  if (!opts.fixture_dir.empty() && !out.unexpected.empty()) {
    out.fixtures =
        write_fixtures(engine.scenarios(), out.report, opts.fixture_dir);
  }
  out.scenarios = engine.scenarios();
  return out;
}

// ---------------------------------------------------------------------------
// Coverage accounting
// ---------------------------------------------------------------------------

void CoverageMatrix::add(const Scenario& s) {
  ++scenarios_seen;
  budgets.insert({s.t, s.b});
  const std::string proto = protocol_traits(s.protocol).cli_name;
  for (const auto& ev : s.events) ++counts[primitive_of(ev).label][proto];
}

void CoverageMatrix::add_all(const std::vector<Scenario>& scenarios) {
  for (const auto& s : scenarios) add(s);
}

std::vector<std::string> CoverageMatrix::missing() const {
  std::vector<std::string> out;
  for (const auto& traits : protocol_registry()) {
    // A protocol whose recipe clamps b to 0 (ABD is crash-only) can never
    // legally host a Byzantine object, so the gate skips that cell.
    const bool byz_legal = traits.resilience_for(2, 1, 2).b > 0;
    for (const auto& p : primitives()) {
      if (!p.model_legal || (p.budget == Budget::B && !byz_legal)) continue;
      const auto pit = counts.find(p.label);
      const bool seen = pit != counts.end() &&
                        pit->second.find(traits.cli_name) != pit->second.end();
      if (!seen) out.push_back(std::string(p.label) + " x " + traits.cli_name);
    }
  }
  return out;
}

std::string CoverageMatrix::table() const {
  std::ostringstream out;
  const auto& registry = protocol_registry();

  std::size_t prim_w = 0;
  for (const auto& p : primitives()) {
    prim_w = std::max(prim_w, std::string_view(p.label).size());
  }

  out << std::string(prim_w, ' ');
  for (const auto& t : registry) out << "  " << t.cli_name;
  out << '\n';
  for (const auto& p : primitives()) {
    const std::string prim = p.label;
    out << prim << std::string(prim_w - prim.size(), ' ');
    for (const auto& t : registry) {
      const std::size_t col_w = std::string(t.cli_name).size();
      std::string cell = "0";
      const auto pit = counts.find(prim);
      if (pit != counts.end()) {
        const auto cit = pit->second.find(t.cli_name);
        if (cit != pit->second.end()) cell = std::to_string(cit->second);
      }
      if (cell == "0") cell = p.model_legal ? "-" : ".";
      out << "  " << std::string(col_w - std::min(col_w, cell.size()), ' ')
          << cell;
    }
    out << '\n';
  }

  out << '\n' << "scenarios: " << scenarios_seen << "; budgets:";
  for (const auto& [t, b] : budgets) {
    out << " (t=" << t << ",b=" << b << ")";
  }
  out << '\n';
  const auto gaps = missing();
  if (gaps.empty()) {
    out << "coverage: complete (every model-legal primitive x protocol)\n";
  } else {
    out << "coverage: " << gaps.size() << " missing cell(s):\n";
    for (const auto& g : gaps) out << "  " << g << '\n';
  }
  out << "('-' = model-legal, unexercised; '.' = outside the channel "
         "model)\n";
  return out.str();
}

}  // namespace rr::harness
