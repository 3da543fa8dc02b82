// Writer automaton of the Guerraoui-Vukolic storage (paper Figure 2).
//
// The same two-round writer drives both the safe storage (over
// objects::SafeObject) and the regular storage (over objects::RegularObject):
// the wire protocol is identical, only object-side bookkeeping differs.
//
// Round 1 (PW): sends the fresh pair <ts, v> together with the *previous*
// write's full tuple, and harvests each object's reader-timestamp row from
// the PW_ACKs. Round 2 (W): embeds the harvested rows (currenttsrarray) into
// the tuple it stores. The embedded rows are what allow readers to detect
// forged tuples: a tuple claiming object i reported a reader timestamp the
// reader never issued is evidence of malice (Figure 4's conflict predicate).
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/client_api.hpp"
#include "core/client_types.hpp"
#include "net/process.hpp"

namespace rr::core {

class Writer : public WriterClient {
 public:
  Writer(const Resilience& res, const Topology& topo);

  /// Invokes WRITE(v). Must not be called while a write is in progress
  /// (clients invoke one operation at a time, Section 2.2). `cb` fires from
  /// within the automaton step that completes the write.
  void write(net::Context& ctx, Value v, WriteCallback cb) override;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override;

  [[nodiscard]] bool busy() const { return phase_ != Phase::Idle; }
  [[nodiscard]] Ts current_ts() const { return ts_; }

 private:
  enum class Phase { Idle, Pw, W };

  void handle_pw_ack(net::Context& ctx, ProcessId from,
                     const wire::PwAckMsg& m);
  void handle_w_ack(net::Context& ctx, ProcessId from, const wire::WAckMsg& m);
  void complete(net::Context& ctx);

  Resilience res_;
  Topology topo_;

  // Persistent protocol state (Figure 2 initialization).
  Ts ts_{0};
  TsVal pw_{TsVal::bottom()};
  WTuple w_;  ///< tuple of the last *completed* write (w0 initially)

  // Per-operation state.
  Phase phase_{Phase::Idle};
  TsrArray::Builder current_tsrarray_;  ///< sealed into w_ once per WRITE
  std::vector<bool> pw_acked_;
  std::vector<bool> w_acked_;
  int pw_ack_count_{0};
  int w_ack_count_{0};
  WriteCallback cb_;
  Time invoked_at_{0};
  int rounds_{0};
};

}  // namespace rr::core
