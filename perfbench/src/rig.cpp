#include "rig.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

namespace rh = rr::harness;

rh::DeploymentOptions deployment_options(const RigConfig& cfg) {
  rh::DeploymentOptions o;
  o.res = cfg.res;
  o.protocol = cfg.protocol;
  o.backend = cfg.backend;
  o.shards = cfg.shards;
  o.seed = cfg.seed;
  o.faults.byzantine = cfg.byzantine;
  o.faults.crashed = cfg.crashed;
  o.delay = rh::DelayKind::Uniform;
  o.delay_lo = cfg.delay_lo;
  o.delay_hi = cfg.delay_hi;
  o.trace_fingerprint = cfg.trace_fingerprint;
  o.link_faults = cfg.link_faults;
  o.checker_window = cfg.checker_window;
  o.thread_max_wall_ms = cfg.max_wall_ms;
  return o;
}

Rig::Rig(const RigConfig& cfg, Tracer* tracer)
    : cfg_(cfg),
      tracer_(tracer),
      layout_{cfg.shards, cfg.res.num_readers, cfg.res.num_objects},
      topo_(cfg.res.num_readers, cfg.res.num_objects) {
  if (!cfg_.res.valid() || cfg_.shards < 1 || cfg_.checker_window == 0 ||
      static_cast<int>(cfg_.byzantine.size() + cfg_.crashed.size()) >
          cfg_.res.t ||
      static_cast<int>(cfg_.byzantine.size()) > cfg_.res.b) {
    throw std::invalid_argument(
        "rig: needs a checker window and a fault plan within (t, b)");
  }
  // Mirrors Deployment::build: backend, then writers, readers and objects in
  // ShardLayout order, crashes, logs, link faults, start.
  rh::BackendConfig bcfg;
  bcfg.seed = cfg_.seed;
  bcfg.delay = rh::DelayKind::Uniform;
  bcfg.delay_lo = cfg_.delay_lo;
  bcfg.delay_hi = cfg_.delay_hi;
  bcfg.trace_fingerprint = cfg_.trace_fingerprint;
  bcfg.max_wall_time_ms = cfg_.max_wall_ms;
  backend_ = rh::make_backend(cfg_.backend, bcfg);

  const rh::ProtocolTraits& traits = rh::protocol_traits(cfg_.protocol);
  const rr::Resilience& res = cfg_.res;
  const int K = cfg_.shards;
  const bool sharded = K > 1;

  for (int s = 0; s < K; ++s) {
    auto w = traits.make_writer(res, topo_);
    std::unique_ptr<rr::core::WriterClient> proc =
        sharded ? std::make_unique<rh::ShardWriter>(layout_, s, std::move(w))
                : std::move(w);
    writers_.push_back(proc.get());
    backend_->add_process(wrap(std::move(proc), Layer::Core));
  }
  for (int s = 0; s < K; ++s) {
    for (int j = 0; j < res.num_readers; ++j) {
      auto r = traits.make_reader(res, topo_, j);
      std::unique_ptr<rr::core::ReaderClient> proc =
          sharded ? std::make_unique<rh::ShardReader>(layout_, s, j,
                                                      std::move(r))
                  : std::move(r);
      readers_.push_back(proc.get());
      backend_->add_process(wrap(std::move(proc), Layer::Core));
    }
  }
  const rh::ObjectConfig ocfg{};
  for (int i = 0; i < res.num_objects; ++i) {
    const auto byz = cfg_.byzantine.find(i);
    const bool impostor = byz != cfg_.byzantine.end();
    const auto make_instance =
        [&](rr::RegisterId) -> std::unique_ptr<rr::net::Process> {
      if (impostor) {
        return rr::adversary::make_byzantine(byz->second, traits.flavor,
                                             topo_, res, i);
      }
      return traits.make_object(topo_, i, ocfg);
    };
    std::unique_ptr<rr::net::Process> obj =
        sharded ? std::make_unique<rh::ShardedObjectHost>(layout_, i,
                                                          make_instance)
                : make_instance(0);
    backend_->add_process(
        wrap(std::move(obj), impostor ? Layer::Adversary : Layer::Objects));
  }
  for (const int i : cfg_.crashed) backend_->crash(layout_.object(i));

  const auto property =
      rh::to_property(rh::promised_semantics(cfg_.protocol));
  for (int s = 0; s < K; ++s) {
    logs_.push_back(std::make_unique<rr::checker::HistoryLog>());
    logs_.back()->enable_window(cfg_.checker_window, property);
  }

  if (cfg_.link_faults.any()) {
    rr::net::LinkFaults lf = cfg_.link_faults;
    for (auto* rule : {&lf.loss, &lf.duplicate, &lf.reorder}) {
      for (auto& pid : rule->pids) {
        pid = layout_.object(static_cast<int>(pid));
      }
    }
    backend_->set_link_faults(lf);
  }
  backend_->start();
}

Rig::~Rig() = default;

std::unique_ptr<rr::net::Process> Rig::wrap(
    std::unique_ptr<rr::net::Process> p, Layer layer) {
  if (tracer_ == nullptr) return p;
  return std::make_unique<TracedProcess>(std::move(p), *tracer_, layer);
}

rr::checker::CheckReport Rig::check() const {
  rr::checker::CheckReport combined;
  for (int s = 0; s < cfg_.shards; ++s) {
    auto report = logs_[static_cast<std::size_t>(s)]->final_check();
    for (auto& v : report.violations) {
      combined.violations.push_back("shard " + std::to_string(s) + ": " +
                                    std::move(v));
    }
    combined.reads_checked += report.reads_checked;
    combined.writes_checked += report.writes_checked;
  }
  return combined;
}

std::uint64_t Rig::history_fingerprint() const {
  std::uint64_t h = rr::checker::kHistoryFpSeed;
  for (const auto& log : logs_) {
    h = rr::checker::fp_fold(h, log->history_fingerprint());
  }
  return h;
}

std::uint64_t Rig::checker_peak_live() const {
  std::uint64_t peak = 0;
  for (const auto& log : logs_) {
    peak = std::max(peak, log->window_stats().peak_live);
  }
  return peak;
}

}  // namespace perfbench
