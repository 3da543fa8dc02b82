#include "harness/primitives.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "harness/deployment.hpp"

namespace rr::harness {
namespace {

using Kind = FaultEvent::Kind;

bool positive(double v) { return v > 0; }
bool fraction(double v) { return v > 0 && v < 1; }
bool probability(double v) { return v > 0 && v <= 1; }
bool slowdown(double v) { return v > 1; }

// ---------------------------------------------------------------------------
// Keys, in emit order per row.
// ---------------------------------------------------------------------------
constexpr PrimitiveKey kObj{
    .name = "obj", .type = KeyType::Object, .required = true};
constexpr PrimitiveKey kTarget{
    .name = "obj", .type = KeyType::Target, .required = true};
constexpr PrimitiveKey kObjs{
    .name = "objs", .type = KeyType::Objects, .required = true};
constexpr PrimitiveKey kAt{.name = "at", .type = KeyType::Start};
constexpr PrimitiveKey kHeldFor{
    .name = "dur", .type = KeyType::Length, .required = true,
    .valid = positive, .want = "a time > 0: holds must be released"};
constexpr PrimitiveKey kOptDur{
    .name = "dur", .type = KeyType::Length, .emit_unset = false};
constexpr PrimitiveKey direction(const char* tag) {
  return {.name = "dir", .type = KeyType::Tag, .required = true,
          .want = "in|out", .tag = tag};
}
/// Link faults: probability, optional scope and window.
constexpr PrimitiveKey kP{.name = "p", .type = KeyType::Rate,
                          .required = true, .valid = probability,
                          .want = "a probability in (0, 1]"};
constexpr PrimitiveKey kScope{
    .name = "objs", .type = KeyType::Objects, .emit_unset = false};
constexpr PrimitiveKey kOptAt{
    .name = "at", .type = KeyType::Start, .emit_unset = false};

constexpr PrimitiveKey kCrashKeys[] = {kObj, kAt};
constexpr PrimitiveKey kByzKeys[] = {
    kObj, {.name = "strategy", .type = KeyType::Strategy}};
constexpr PrimitiveKey kHoldKeys[] = {kObjs, kAt, kHeldFor};
constexpr PrimitiveKey kPartitionInKeys[] = {kObjs, direction("in"), kAt,
                                              kHeldFor};
constexpr PrimitiveKey kPartitionOutKeys[] = {kObjs, direction("out"), kAt,
                                               kHeldFor};
constexpr PrimitiveKey kFlapKeys[] = {
    kObjs,
    kAt,
    {.name = "dur", .type = KeyType::Length, .fallback = 300'000},
    {.name = "period", .type = KeyType::Period, .fallback = 20'000,
     .valid = positive, .want = "a time > 0"},
    {.name = "duty", .type = KeyType::Rate, .fallback = 0.5,
     .valid = fraction, .want = "a fraction in (0, 1)"},
    {.name = "jitter", .type = KeyType::Jitter},
};
constexpr PrimitiveKey kGrayKeys[] = {
    kTarget,
    {.name = "slow", .type = KeyType::Rate, .required = true,
     .valid = slowdown, .want = "a factor > 1"},
    kAt, kOptDur};
constexpr PrimitiveKey kSkewKeys[] = {
    kTarget, {.name = "offset", .type = KeyType::Offset, .required = true}};
constexpr PrimitiveKey kLinkKeys[] = {kP, kScope, kOptAt, kOptDur};
constexpr PrimitiveKey kReorderKeys[] = {
    kP,
    {.name = "delay", .type = KeyType::Period, .fallback = 20'000,
     .valid = positive, .want = "a time > 0"},
    kScope, kOptAt, kOptDur};

// ---------------------------------------------------------------------------
// How a primitive applies: into DeploymentOptions at construction, or as
// timed edges (at, on) whose effect `apply` has on each target process.
// ---------------------------------------------------------------------------
void byzantine(const FaultEvent& ev, DeploymentOptions& o) {
  o.faults.byzantine[ev.object] = ev.strategy;
}
void object_skew(const FaultEvent& ev, DeploymentOptions& o) {
  o.clock_skew[ev.object] = ev.skew;
}
/// A link-fault rule into its slot. The scope holds object indices here;
/// Deployment::build() rewrites them to pids.
template <net::LinkFaultRule net::LinkFaults::*kSlot>
void link_fault(const FaultEvent& ev, DeploymentOptions& o) {
  net::LinkFaultRule rule;
  rule.p = ev.rate;
  rule.from = ev.at;
  rule.until = ev.duration > 0 ? ev.at + ev.duration : 0;
  for (const int obj : ev.held) {
    rule.pids.push_back(static_cast<ProcessId>(obj));
  }
  o.link_faults.*kSlot = std::move(rule);
}
void reorder(const FaultEvent& ev, DeploymentOptions& o) {
  link_fault<&net::LinkFaults::reorder>(ev, o);
  o.link_faults.reorder_delay = ev.period;
}

FaultEdges at_start(const FaultEvent& ev, Time now, std::uint64_t) {
  return {{now + ev.at, true}};
}
FaultEdges window(const FaultEvent& ev, Time now, std::uint64_t) {
  return {{now + ev.at, true}, {now + ev.at + ev.duration, false}};
}
/// A window that stays open for good when its duration is 0.
FaultEdges open_window(const FaultEvent& ev, Time now, std::uint64_t seed) {
  return ev.duration > 0 ? window(ev, now, seed) : at_start(ev, now, seed);
}
/// The whole flap schedule, derived up front from the seed and the event's
/// own shape (two flaps in one scenario draw distinct jitter streams), so a
/// replay or a shrunk scenario sees identical edge times. Every hold is
/// released: a final release closes the last cycle at the window's end.
FaultEdges flap(const FaultEvent& ev, Time now, std::uint64_t seed) {
  FaultEdges out;
  const Time end = now + ev.at + ev.duration;
  const auto held_span = static_cast<Time>(static_cast<double>(ev.period) *
                                           std::clamp(ev.rate, 0.05, 0.95));
  Rng rng(mix64(mix64(seed ^ ev.at) ^ ev.period));
  const auto jit = [&]() -> Time {
    return ev.jitter == 0 ? 0 : rng.uniform(0, ev.jitter);
  };
  for (Time cycle = now + ev.at; cycle < end; cycle += ev.period) {
    const Time hold_at = cycle + jit();
    const Time release_at = std::min(hold_at + held_span + jit(), end);
    if (hold_at >= end) break;
    out.emplace_back(hold_at, true);
    out.emplace_back(release_at, false);
  }
  out.emplace_back(end, false);
  return out;
}

void crash(Backend& b, ProcessId p, const FaultEvent&, bool) { b.crash(p); }
void isolate(Backend& b, ProcessId p, const FaultEvent&, bool on) {
  if (on) {
    b.hold_all(p);
  } else {
    b.release_all(p);
  }
}
/// Holds one direction of every channel adjacent to `p`.
template <bool kInbound>
void isolate_one_way(Backend& b, ProcessId p, const FaultEvent&, bool on) {
  for (ProcessId q = 0; q < b.num_processes(); ++q) {
    if (q == p) continue;
    const ProcessId from = kInbound ? q : p;
    const ProcessId to = kInbound ? p : q;
    if (on) {
      b.hold(from, to);
    } else {
      b.release(from, to);
    }
  }
}
void slow(Backend& b, ProcessId p, const FaultEvent& ev, bool on) {
  b.set_gray(p, on ? ev.rate : 1.0);
}
void client_skew(Backend& b, ProcessId p, const FaultEvent& ev, bool) {
  b.set_clock_skew(p, ev.skew);
}

// ---------------------------------------------------------------------------
// Fuzz draws. Windows are bounded (holds and flaps release, gray recovers
// or merely slows) so liveness holds by construction; loss has no draw: it
// breaks the reliable-channel assumption and stalls operations.
// ---------------------------------------------------------------------------
std::vector<int> held_subset(FuzzDraw& f) {
  return f.objects(1 + static_cast<int>(f.rng.index(static_cast<std::size_t>(
                           std::min(f.res.num_objects, 2)))));
}
void draw_window(FuzzDraw& f, FaultEvent& ev, Time start_max, Time dur_lo,
                 Time dur_hi) {
  ev.at = f.rng.uniform(0, start_max);
  ev.duration = f.rng.uniform(dur_lo, dur_hi);
}
/// An object with probability `object_share`, else the writer or a reader.
void draw_target(FuzzDraw& f, FaultEvent& ev, double object_share) {
  if (f.rng.chance(object_share)) {
    ev.object = static_cast<int>(
        f.rng.index(static_cast<std::size_t>(f.res.num_objects)));
  } else if (f.rng.chance(0.5)) {
    ev.role = Role::Writer;
  } else {
    ev.role = Role::Reader;
    ev.object = static_cast<int>(
        f.rng.index(static_cast<std::size_t>(f.res.num_readers)));
  }
}
void draw_hold(FuzzDraw& f, FaultEvent& ev) {
  ev.held = held_subset(f);
  draw_window(f, ev, 20'000, 2'000, 12'000);
}
/// Both partition rows draw here, re-deciding the direction, so the two
/// pool entries give both directions equal weight.
void draw_partition(FuzzDraw& f, FaultEvent& ev) {
  ev.kind = f.rng.chance(0.5) ? Kind::PartitionIn : Kind::PartitionOut;
  draw_hold(f, ev);
}
void draw_flap(FuzzDraw& f, FaultEvent& ev) {
  ev.held = held_subset(f);
  draw_window(f, ev, 15'000, 4'000, 16'000);
  ev.period = f.rng.uniform(1'000, 4'000);
  ev.rate = static_cast<double>(f.rng.uniform(3, 7)) / 10.0;
  ev.jitter = f.rng.uniform(0, 300);
}
/// Both gray rows draw here, re-drawing the target: object 60%, client 40%.
void draw_gray(FuzzDraw& f, FaultEvent& ev) {
  draw_target(f, ev, 0.6);
  ev.rate = static_cast<double>(f.rng.uniform(2, 6));
  ev.at = f.rng.uniform(0, 15'000);
  // Open-ended gray is legal (slow is still alive) but only worth the
  // wall-clock risk on the DES.
  ev.duration = f.backend == BackendKind::Sim && f.rng.chance(0.25)
                    ? 0
                    : f.rng.uniform(3'000, 15'000);
}
void draw_skew(FuzzDraw& f, FaultEvent& ev) {
  draw_target(f, ev, 0.5);
  ev.skew = static_cast<std::int64_t>(f.rng.uniform(0, 10'000)) - 5'000;
}
void draw_reorder(FuzzDraw& f, FaultEvent& ev) {
  ev.rate = static_cast<double>(f.rng.uniform(5, 25)) / 100.0;
  ev.period = f.rng.uniform(500, 2'500);
  if (f.rng.chance(0.5)) ev.held = held_subset(f);
}
void draw_dup(FuzzDraw& f, FaultEvent& ev) {
  ev.rate = static_cast<double>(f.rng.uniform(5, 20)) / 100.0;
}

constexpr Primitive kPrimitives[] = {
    {.label = "crash", .kind = Kind::Crash, .word = "crash",
     .keys = kCrashKeys, .budget = Budget::T, .edges = at_start,
     .apply = crash},
    {.label = "byz", .kind = Kind::Byzantine, .word = "byz",
     .keys = kByzKeys, .budget = Budget::B, .configure = byzantine},
    {.label = "hold", .kind = Kind::Hold, .word = "hold", .keys = kHoldKeys,
     .edges = window, .apply = isolate, .draw = draw_hold},
    {.label = "partition-in", .kind = Kind::PartitionIn, .word = "partition",
     .keys = kPartitionInKeys, .edges = window,
     .apply = isolate_one_way<true>, .draw = draw_partition},
    {.label = "partition-out", .kind = Kind::PartitionOut,
     .word = "partition", .keys = kPartitionOutKeys, .edges = window,
     .apply = isolate_one_way<false>, .draw = draw_partition},
    {.label = "flap", .kind = Kind::Flap, .word = "flap", .keys = kFlapKeys,
     .edges = flap, .apply = isolate, .draw = draw_flap},
    {.label = "gray", .kind = Kind::Gray, .word = "gray", .keys = kGrayKeys,
     .edges = open_window, .apply = slow, .draw = draw_gray},
    {.label = "gray-client", .kind = Kind::Gray, .client = true,
     .word = "gray", .keys = kGrayKeys, .edges = open_window, .apply = slow,
     .draw = draw_gray},
    {.label = "skew", .kind = Kind::Skew, .word = "skew", .keys = kSkewKeys,
     .des_only = true, .configure = object_skew, .draw = draw_skew},
    // Client skew resolves against the layout, which exists only after
    // construction; it is installed then, before any event runs.
    {.label = "skew-client", .kind = Kind::Skew, .client = true,
     .word = "skew", .keys = kSkewKeys, .des_only = true,
     .apply = client_skew, .draw = draw_skew},
    {.label = "reorder", .kind = Kind::Reorder, .word = "reorder",
     .keys = kReorderKeys, .once = true, .configure = reorder,
     .draw = draw_reorder},
    // Duplication breaks the reliable-channel model but is benign (quorum
    // acks are idempotent), so the fuzzer still draws it.
    {.label = "dup", .kind = Kind::Duplicate, .word = "dup",
     .keys = kLinkKeys, .once = true, .model_legal = false,
     .configure = link_fault<&net::LinkFaults::duplicate>, .draw = draw_dup},
    {.label = "loss", .kind = Kind::Loss, .word = "loss", .keys = kLinkKeys,
     .once = true, .model_legal = false,
     .configure = link_fault<&net::LinkFaults::loss>},
};

}  // namespace

std::vector<int> FuzzDraw::objects(int k) {
  // Partial Fisher-Yates over the identity permutation.
  const int n = res.num_objects;
  std::vector<int> pool(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<int>(rng.index(static_cast<std::size_t>(n - i)));
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(k));
  return pool;
}

std::span<const Primitive> primitives() { return kPrimitives; }

const Primitive& primitive_of(const FaultEvent& ev) {
  for (const auto& p : kPrimitives) {
    if (p.kind == ev.kind && p.client == (ev.role != Role::Object)) return p;
  }
  RR_ASSERT_MSG(false, "only gray and skew may target a client role");
  return kPrimitives[0];
}

FaultEvent with_defaults(FaultEvent ev) {
  for (const auto& k : primitive_of(ev).keys) {
    if (k.fallback == 0) continue;
    if (const auto field = time_field(k.type); field && ev.*field == 0) {
      ev.*field = static_cast<Time>(k.fallback);
    } else if (k.type == KeyType::Rate && ev.rate == 0) {
      ev.rate = k.fallback;
    }
  }
  return ev;
}

Time FaultEvent::*time_field(KeyType type) {
  switch (type) {
    case KeyType::Start: return &FaultEvent::at;
    case KeyType::Length: return &FaultEvent::duration;
    case KeyType::Period: return &FaultEvent::period;
    case KeyType::Jitter: return &FaultEvent::jitter;
    default: return nullptr;
  }
}

}  // namespace rr::harness
