// The benchmark's own deployment assembly.
//
// Rig mirrors harness::Deployment::build from the layers' public pieces --
// the backend registry, the protocol-traits factories, the Byzantine
// strategies, the shard adapters and one HistoryLog per shard -- so that the
// benchmark can put each process behind a timing decorator (trace.hpp) when
// asked. Built without a tracer it registers exactly the automata a
// Deployment would, in the same order, which the parity self-check proves on
// the DES (identical schedule fingerprint, NetStats and history).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "adversary/byzantine.hpp"
#include "checker/history.hpp"
#include "common/types.hpp"
#include "core/client_api.hpp"
#include "harness/backend.hpp"
#include "harness/deployment.hpp"
#include "harness/protocol.hpp"
#include "harness/shard.hpp"
#include "net/faults.hpp"
#include "trace.hpp"

namespace perfbench {

struct RigConfig {
  rr::harness::BackendKind backend{rr::harness::BackendKind::Sim};
  rr::harness::Protocol protocol{rr::harness::Protocol::Safe};
  rr::Resilience res{rr::Resilience::optimal(1, 1)};
  int shards{1};
  std::uint64_t seed{1};
  std::map<int, rr::adversary::StrategyKind> byzantine;  ///< object -> kind
  std::vector<int> crashed;                             ///< object indices
  /// Pid scopes are object indices, rewritten to physical pids on build.
  rr::net::LinkFaults link_faults{};
  Time delay_lo{1'000};  ///< DES uniform channel delay, ns
  Time delay_hi{10'000};
  bool trace_fingerprint{false};
  /// Windowed streaming checker batch (every rig verifies online).
  std::size_t checker_window{4096};
  /// Threads + net: bounded run deadline; a stall becomes timed_out().
  std::uint64_t max_wall_ms{0};
};

/// Writers and readers: the pids below this count (every layout registers
/// clients first), which is what a Tracer needs to attribute ops.
[[nodiscard]] inline int client_count(const RigConfig& cfg) {
  return cfg.shards * (1 + cfg.res.num_readers);
}

/// The harness::DeploymentOptions describing the same deployment (the
/// parity self-check builds both and compares them).
[[nodiscard]] rr::harness::DeploymentOptions deployment_options(
    const RigConfig& cfg);

class Rig {
 public:
  /// `tracer` null: the plain assembly. Non-null: every process sits behind
  /// a TracedProcess; the tracer must outlive the rig.
  Rig(const RigConfig& cfg, Tracer* tracer);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] rr::harness::Backend& backend() { return *backend_; }
  [[nodiscard]] const rr::harness::ShardLayout& layout() const {
    return layout_;
  }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  [[nodiscard]] rr::core::WriterClient& writer(int shard) {
    return *writers_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] rr::core::ReaderClient& reader(int shard, int j) {
    return *readers_[static_cast<std::size_t>(shard * layout_.readers + j)];
  }
  [[nodiscard]] rr::checker::HistoryLog& log(int shard) {
    return *logs_[static_cast<std::size_t>(shard)];
  }

  /// Every shard's history against the protocol's promised semantics,
  /// well-formedness included; violations are prefixed with the shard.
  [[nodiscard]] rr::checker::CheckReport check() const;
  /// Fold of every shard's history fingerprint, in shard order.
  [[nodiscard]] std::uint64_t history_fingerprint() const;
  /// Largest peak of resident (unretired) ops across shards.
  [[nodiscard]] std::uint64_t checker_peak_live() const;

 private:
  std::unique_ptr<rr::net::Process> wrap(std::unique_ptr<rr::net::Process> p,
                                         Layer layer);

  RigConfig cfg_;
  Tracer* tracer_;
  rr::harness::ShardLayout layout_;
  rr::Topology topo_;
  std::vector<rr::core::WriterClient*> writers_;  ///< [shard]
  std::vector<rr::core::ReaderClient*> readers_;  ///< [shard * R + j]
  std::vector<std::unique_ptr<rr::checker::HistoryLog>> logs_;
  // Last, so it is destroyed first: its threads may still reference the
  // logs and client tables above until they are joined.
  std::unique_ptr<rr::harness::Backend> backend_;
};

}  // namespace perfbench
