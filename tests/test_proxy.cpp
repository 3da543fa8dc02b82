// net::ChannelProxy, the one channel fault policy under every substrate:
// the draw order, the hold point, the crash-drop point, release FIFO, copy
// conservation under concurrent senders, and the NetStats sum the
// substrates total their per-thread counters with.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "net/proxy.hpp"

namespace rr::net {
namespace {

/// One copy as the proxy handed it to a sink or an injector.
struct Copy {
  ProcessId from{kNoProcess};
  ProcessId to{kNoProcess};
  Ts ts{0};
  Time defer{0};
};

/// A proxy over `n` processes plus a recording sink.
struct Rig {
  explicit Rig(int n, const LinkFaults& lf = {}) {
    for (int i = 0; i < n; ++i) proxy.add_process();
    proxy.set_link_faults(lf);
  }

  void send(ProcessId from, ProcessId to, Ts ts, Time now = 0) {
    proxy.send(from, to, wire::WAckMsg{ts}, [now] { return now; }, rng, st,
               [&](wire::Message&& copy, Time defer) {
                 sunk.push_back(
                     {from, to, std::get<wire::WAckMsg>(copy).ts, defer});
               });
  }

  void release(ProcessId from, ProcessId to) {
    proxy.release(from, to, [&](ProcessId f, ProcessId t,
                                wire::Message&& msg) {
      injected.push_back({f, t, std::get<wire::WAckMsg>(msg).ts, 0});
    });
  }

  ChannelProxy proxy;
  Rng rng{99};
  NetStats st;
  std::vector<Copy> sunk;
  std::vector<Copy> injected;
};

TEST(ChannelProxy, QuietSendIsOneCopyDeliveredNowWithoutReadingTheClock) {
  Rig r(2);
  bool clock_read = false;
  r.proxy.send(0, 1, wire::WAckMsg{7},
               [&clock_read] {
                 clock_read = true;
                 return Time{0};
               },
               r.rng, r.st, [&](wire::Message&&, Time defer) {
                 r.sunk.push_back({0, 1, 7, defer});
               });
  ASSERT_EQ(r.sunk.size(), 1u);
  EXPECT_EQ(r.sunk[0].defer, 0u);
  EXPECT_FALSE(clock_read) << "the no-fault branch must not read the clock";
}

// The draws, in their one order: loss, duplication, then one reorder draw
// per copy, all from the caller's stream.
TEST(ChannelProxy, DrawOrderIsLossThenDuplicateThenReorderPerCopy) {
  LinkFaults lf;
  lf.loss.p = 0.2;
  lf.duplicate.p = 0.4;
  lf.reorder.p = 0.5;
  lf.reorder_delay = 777;
  Rig r(2, lf);
  Rng ref = r.rng;
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
  std::uint64_t reordered = 0;
  std::vector<Time> expect_defers;
  for (Ts i = 0; i < 500; ++i) {
    r.send(0, 1, i);
    if (ref.chance(lf.loss.p)) {
      ++lost;
      continue;
    }
    const int copies = ref.chance(lf.duplicate.p) ? 2 : 1;
    dup += copies - 1;
    for (int c = 0; c < copies; ++c) {
      const bool re = ref.chance(lf.reorder.p);
      reordered += re;
      expect_defers.push_back(re ? lf.reorder_delay : 0);
    }
  }
  EXPECT_EQ(r.st.messages_lost, lost);
  EXPECT_EQ(r.st.messages_duplicated, dup);
  EXPECT_EQ(r.st.messages_reordered, reordered);
  ASSERT_EQ(r.sunk.size(), expect_defers.size());
  for (std::size_t i = 0; i < expect_defers.size(); ++i) {
    EXPECT_EQ(r.sunk[i].defer, expect_defers[i]) << "copy " << i;
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(dup, 0u);
  EXPECT_GT(reordered, 0u);
}

TEST(ChannelProxy, RulesRespectTheirWindowAndScope) {
  LinkFaults lf;
  lf.loss.p = 1.0;
  lf.loss.from = 100;
  lf.loss.until = 200;
  lf.loss.pids = {2};
  Rig r(3, lf);
  r.send(0, 1, 1, 150);  // out of scope
  r.send(0, 2, 2, 50);   // before the window
  r.send(2, 0, 3, 150);  // in scope and window: lost
  r.send(0, 2, 4, 200);  // window end is exclusive
  EXPECT_EQ(r.st.messages_lost, 1u);
  ASSERT_EQ(r.sunk.size(), 3u);
  EXPECT_EQ(r.sunk[1].ts, 2u);
  EXPECT_EQ(r.sunk[2].ts, 4u);
}

// Hold point: the sender, after loss and duplication, before reorder. The
// backlog comes back FIFO with no reorder draw.
TEST(ChannelProxy, HeldCopiesSkipReorderAndReleaseFifo) {
  LinkFaults lf;
  lf.duplicate.p = 0.5;
  lf.reorder.p = 1.0;
  Rig r(2, lf);
  r.proxy.hold(0, 1);
  EXPECT_TRUE(r.proxy.held(0, 1));
  EXPECT_FALSE(r.proxy.held(1, 0));
  for (Ts i = 0; i < 100; ++i) r.send(0, 1, i);
  EXPECT_TRUE(r.sunk.empty());
  EXPECT_GT(r.st.messages_duplicated, 0u);
  EXPECT_EQ(r.st.messages_reordered, 0u);
  r.release(0, 1);
  EXPECT_FALSE(r.proxy.held(0, 1));
  EXPECT_EQ(r.st.messages_reordered, 0u);
  ASSERT_EQ(r.injected.size(), 100u + r.st.messages_duplicated);
  for (std::size_t i = 1; i < r.injected.size(); ++i) {
    EXPECT_LE(r.injected[i - 1].ts, r.injected[i].ts) << "FIFO";
  }
  r.release(0, 1);  // no longer held: a no-op
  EXPECT_EQ(r.injected.size(), 100u + r.st.messages_duplicated);
  // Released, the channel reorders again.
  r.send(0, 1, 1000);
  ASSERT_FALSE(r.sunk.empty());
  EXPECT_EQ(r.st.messages_reordered, r.sunk.size());
}

// Crash-drop point: delivery. The gate drops (and counts) copies touching a
// crashed endpoint; backlogs next to it are purged at once and cannot be
// resurrected, and a send onto such a held channel is dropped at once.
TEST(ChannelProxy, CrashPurgesAdjacentBacklogsAndTheGateDrops) {
  LinkFaults lf;
  lf.duplicate.p = 1.0;
  Rig r(3, lf);
  r.proxy.hold(0, 1);
  r.proxy.hold(0, 2);
  for (Ts i = 0; i < 5; ++i) {
    r.send(0, 1, i);
    r.send(0, 2, i);
  }
  EXPECT_EQ(r.proxy.dropped(), 0u);
  r.proxy.crash(1);
  EXPECT_TRUE(r.proxy.crashed(1));
  EXPECT_EQ(r.proxy.dropped(), 10u) << "both copies of 5 sends purged";
  EXPECT_TRUE(r.proxy.held(0, 1)) << "the channel itself stays held";
  r.send(0, 1, 9);
  EXPECT_EQ(r.proxy.dropped(), 12u) << "post-crash sends do not refill it";
  r.release(0, 1);
  EXPECT_TRUE(r.injected.empty());
  r.release(0, 2);
  EXPECT_EQ(r.injected.size(), 10u) << "the other backlog survives";
  // The gate: any copy touching the crashed process is dropped.
  EXPECT_TRUE(r.proxy.admit(0, 2));
  EXPECT_FALSE(r.proxy.admit(0, 1));
  EXPECT_FALSE(r.proxy.admit(1, 2));
  EXPECT_EQ(r.proxy.dropped(), 14u);
  // Draws still apply to sends to a crashed process; the copies reach the
  // sink and are dropped at the gate.
  r.send(2, 1, 10);
  EXPECT_EQ(r.st.messages_duplicated, 12u);
  EXPECT_EQ(r.sunk.size(), 2u);
}

TEST(ChannelProxy, HoldAllSkipsTheSelfChannelAndReleaseAllOrdersByPeer) {
  Rig r(3);
  r.proxy.hold_all(1);
  EXPECT_FALSE(r.proxy.held(1, 1));
  EXPECT_TRUE(r.proxy.held(1, 0));
  EXPECT_TRUE(r.proxy.held(0, 1));
  EXPECT_TRUE(r.proxy.held(2, 1));
  EXPECT_FALSE(r.proxy.held(0, 2));
  r.send(2, 1, 1);
  r.send(1, 2, 2);
  r.send(0, 1, 3);
  r.send(1, 0, 4);
  EXPECT_TRUE(r.sunk.empty());
  r.proxy.release_all(1, [&](ProcessId f, ProcessId t, wire::Message&& m) {
    r.injected.push_back({f, t, std::get<wire::WAckMsg>(m).ts, 0});
  });
  // Peer 0 first (1 -> 0, then 0 -> 1), then peer 2 (1 -> 2, then 2 -> 1).
  ASSERT_EQ(r.injected.size(), 4u);
  EXPECT_EQ(r.injected[0].ts, 4u);
  EXPECT_EQ(r.injected[1].ts, 3u);
  EXPECT_EQ(r.injected[2].ts, 2u);
  EXPECT_EQ(r.injected[3].ts, 1u);
  EXPECT_FALSE(r.proxy.held(2, 1));
}

// Senders on their own threads and streams, while another thread holds,
// releases and crashes: every copy is accounted exactly once. Also the
// proxy's race check under ThreadSanitizer.
TEST(ChannelProxy, ConcurrentSendersConserveEveryCopy) {
  constexpr int kProcs = 4;
  constexpr int kSends = 4000;
  LinkFaults lf;
  lf.loss.p = 0.05;
  lf.duplicate.p = 0.2;
  lf.reorder.p = 0.3;
  ChannelProxy proxy;
  for (int i = 0; i < kProcs; ++i) proxy.add_process();
  proxy.set_link_faults(lf);
  proxy.crash(3);  // drops from the start; a second crash lands mid-run

  std::atomic<std::uint64_t> delivered{0};
  const auto admit = [&](ProcessId from, ProcessId to) {
    if (proxy.admit(from, to)) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<NetStats> stats(kProcs);
  std::atomic<int> running{kProcs};
  std::vector<std::thread> senders;
  for (ProcessId from = 0; from < kProcs; ++from) {
    senders.emplace_back([&, from] {
      Rng rng(1000 + static_cast<std::uint64_t>(from));
      NetStats& st = stats[static_cast<std::size_t>(from)];
      for (int i = 0; i < kSends; ++i) {
        const auto to = static_cast<ProcessId>(rng.index(kProcs));
        st.messages_sent++;
        proxy.send(from, to, wire::WAckMsg{1}, [] { return Time{0}; }, rng,
                   st, [&](wire::Message&&, Time) { admit(from, to); });
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  const auto inject = [&](ProcessId f, ProcessId t, wire::Message&&) {
    admit(f, t);
  };
  // Hold/release waves until the senders finish.
  for (int wave = 0; wave < 20 || running.load(std::memory_order_acquire) > 0;
       ++wave) {
    const auto pid = static_cast<ProcessId>(wave % kProcs);
    proxy.hold_all(pid);
    std::this_thread::yield();
    if (wave == 2) proxy.crash(2);
    proxy.release_all(pid, inject);
  }
  for (auto& t : senders) t.join();
  for (ProcessId pid = 0; pid < kProcs; ++pid) {
    proxy.release_all(pid, inject);
  }

  NetStats total;
  for (const auto& st : stats) total += st;
  total.messages_delivered = delivered.load();
  total.messages_dropped += proxy.dropped();
  EXPECT_EQ(total.messages_sent, std::uint64_t{kProcs} * kSends);
  EXPECT_GT(total.messages_dropped, 0u);
  EXPECT_EQ(total.messages_sent + total.messages_duplicated,
            total.messages_delivered + total.messages_dropped +
                total.messages_lost);
}

// Substrates total their per-thread counters with one operator; a new
// counter must be added there, and the size check below makes that
// impossible to forget.
TEST(NetStatsSum, AddsEveryField) {
  static_assert(sizeof(NetStats) ==
                    sizeof(std::uint64_t) * (9 + 2 * NetStats::kNumTypes),
                "NetStats gained a field: add it to operator+= and here");
  NetStats a;
  NetStats b;
  std::uint64_t v = 1;
  for (NetStats* s : {&a, &b}) {
    s->messages_sent = v++;
    s->messages_delivered = v++;
    s->messages_dropped = v++;
    s->bytes_sent = v++;
    s->messages_lost = v++;
    s->messages_duplicated = v++;
    s->messages_reordered = v++;
    s->hist_slots_shipped = v++;
    s->hist_resyncs = v++;
    for (std::size_t i = 0; i < NetStats::kNumTypes; ++i) {
      s->messages_by_type[i] = v++;
      s->bytes_by_type[i] = v++;
    }
  }
  const NetStats a0 = a;
  a += b;
  EXPECT_EQ(a.messages_sent, a0.messages_sent + b.messages_sent);
  EXPECT_EQ(a.messages_delivered,
            a0.messages_delivered + b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, a0.messages_dropped + b.messages_dropped);
  EXPECT_EQ(a.bytes_sent, a0.bytes_sent + b.bytes_sent);
  EXPECT_EQ(a.messages_lost, a0.messages_lost + b.messages_lost);
  EXPECT_EQ(a.messages_duplicated,
            a0.messages_duplicated + b.messages_duplicated);
  EXPECT_EQ(a.messages_reordered,
            a0.messages_reordered + b.messages_reordered);
  EXPECT_EQ(a.hist_slots_shipped,
            a0.hist_slots_shipped + b.hist_slots_shipped);
  EXPECT_EQ(a.hist_resyncs, a0.hist_resyncs + b.hist_resyncs);
  for (std::size_t i = 0; i < NetStats::kNumTypes; ++i) {
    EXPECT_EQ(a.messages_by_type[i],
              a0.messages_by_type[i] + b.messages_by_type[i]);
    EXPECT_EQ(a.bytes_by_type[i], a0.bytes_by_type[i] + b.bytes_by_type[i]);
  }
}

}  // namespace
}  // namespace rr::net
