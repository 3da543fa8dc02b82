// Load generation over a Rig: closed-loop client chains or one open-loop
// arrival generator.
//
// Closed loop: every client station (each shard's writer and readers) runs
// one chain with zero think time; an op is due when the station's previous
// op completes. Open loop: one seeded arrival process (harness::
// ArrivalSampler) hosted on shard 0's writer picks a client, maps it to a
// station exactly as harness::OpenLoopEngine does, and queues the op in that
// station's harness::StationRing while the station is busy; an op is due at
// its arrival. Either way an op's latency runs from its due time to its
// response, so queueing and posting delay are part of it.
//
// Each op is recorded in its shard's HistoryLog the way Deployment's logged
// ops are, so the windowed checker verifies every run.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "harness/workload.hpp"
#include "net/stats.hpp"
#include "rig.hpp"

namespace perfbench {

struct OpenLoad {
  std::uint64_t clients{1'200'000};
  double write_fraction{0.15};
  /// Mean offered arrivals per second of backend clock.
  double arrivals_per_s{500'000};
  Time burst_period{2'000'000};
  double burst_duty{0.25};
  double burst_boost{4.0};
  std::size_t queue_cap{1024};
};

/// When a phase stops issuing new work: at a steady-clock deadline, or after
/// a count (closed loop: ops per station; open loop: arrivals).
struct StopRule {
  std::uint64_t deadline_ns{0};  ///< 0 = use `count`
  std::uint64_t count{0};
};

struct PhaseResult {
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  std::uint64_t reads{0};
  std::uint64_t read_rounds{0};  ///< summed ReadResult::rounds
  std::uint64_t arrivals{0};
  std::uint64_t shed{0};
  std::uint64_t max_queue_depth{0};
  std::vector<Time> read_lat;   ///< due -> response, backend clock ns
  std::vector<Time> write_lat;
  std::vector<Time> lag;        ///< due -> invocation step start
  std::uint64_t wall_ns{0};
  std::uint64_t cpu_ns{0};      ///< process user + sys
  std::uint64_t sys_ns{0};
  std::uint64_t events{0};      ///< Backend::run()'s return
  bool timed_out{false};
};

/// Traffic between two NetStats snapshots (`after` - `before`).
[[nodiscard]] rr::net::NetStats stats_delta(const rr::net::NetStats& before,
                                            const rr::net::NetStats& after);

class LoadGenerator {
 public:
  /// `open` empty: the closed loop over every client station.
  LoadGenerator(Rig& rig, std::optional<OpenLoad> open, std::uint64_t seed);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Issues work until `stop`, runs the backend to quiescence and returns
  /// the phase's counts, latencies and costs.
  PhaseResult run_phase(const StopRule& stop);

 private:
  struct Station {
    Station(ProcessId p, int s, int r, std::size_t cap)
        : pid(p), shard(s), reader(r), ring(cap) {}
    ProcessId pid;
    int shard;
    int reader;          ///< -1 = the shard's writer
    rr::Ts next_k{0};    ///< writer: index of the last write issued
    std::uint64_t issued{0};
    std::uint64_t completed{0};
    std::uint64_t rounds{0};
    std::vector<Time> lat;
    std::vector<Time> lag;
    bool busy{false};             ///< open loop: an op is in flight
    rr::harness::StationRing ring;  ///< open loop: queued arrivals
  };

  [[nodiscard]] bool stop_issuing(const Station& st) const;
  void issue(Station& st, Time at, Time due);
  void start_op(rr::net::Context& ctx, Station& st, Time due);
  void complete(Station& st, Time due, Time done, int rounds);
  void schedule_arrival(Time t);
  void on_arrival(Time t);

  Rig& rig_;
  std::optional<OpenLoad> open_;
  std::vector<std::unique_ptr<Station>> stations_;  ///< [s * (1 + R) + j]
  StopRule stop_{};
  // Open-loop state, guarded by mu_ (uncontended on the DES).
  std::mutex mu_;
  std::unique_ptr<rr::harness::ArrivalSampler> sampler_;
  rr::Rng rng_;
  std::uint64_t arrivals_{0};
  std::uint64_t shed_{0};
  std::uint64_t max_depth_{0};
};

}  // namespace perfbench
