#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Harness: return "harness";
    case Layer::Core: return "core";
    case Layer::Objects: return "objects";
    case Layer::Adversary: return "adversary";
    case Layer::Send: return "send";
    case Layer::Checker: return "checker";
  }
  return "?";
}

struct Tracer::ThreadLog {
  struct Frame {
    Layer layer;
    OpId op;
    std::uint64_t id;
    std::uint64_t start;
    std::uint64_t child_ns;
  };

  std::uint32_t thread{0};
  std::uint64_t next_id{1};
  std::array<LayerTotals, kLayers> totals{};
  std::vector<Frame> stack;
  std::vector<Span> spans;
  std::vector<rr::wire::Message> sample;
  std::uint64_t offered{0};
};

Tracer::Tracer(int num_clients, std::size_t span_cap, std::size_t sample_cap)
    : num_clients_(num_clients),
      span_cap_(span_cap),
      sample_cap_(sample_cap),
      generation_(g_generation.fetch_add(1) + 1),
      epoch_ns_(now_ns()),
      op_seq_(std::make_unique<std::atomic<std::uint32_t>[]>(
          static_cast<std::size_t>(num_clients))) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::local() {
  struct Cache {
    std::uint64_t generation{0};
    ThreadLog* log{nullptr};
  };
  thread_local Cache cache;
  if (cache.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto log = std::make_unique<ThreadLog>();
    log->thread = static_cast<std::uint32_t>(logs_.size());
    log->stack.reserve(64);
    log->spans.reserve(span_cap_);
    cache.log = log.get();
    cache.generation = generation_;
    logs_.push_back(std::move(log));
  }
  return *cache.log;
}

OpId Tracer::begin_op(ProcessId client) {
  auto& seq = op_seq_[static_cast<std::size_t>(client)];
  const std::uint32_t next = seq.load(std::memory_order_relaxed) + 1;
  seq.store(next, std::memory_order_relaxed);
  return OpId{client, next};
}

OpId Tracer::op_between(ProcessId a, ProcessId b) const {
  const ProcessId client = a < num_clients_ ? a : b;
  if (client < 0 || client >= num_clients_) return OpId{};
  return OpId{client, op_seq_[static_cast<std::size_t>(client)].load(
                          std::memory_order_relaxed)};
}

void Tracer::open(Layer layer, OpId op) {
  ThreadLog& log = local();
  const std::uint64_t id =
      (static_cast<std::uint64_t>(log.thread) << 40) | log.next_id++;
  log.stack.push_back({layer, op, id, now_ns(), 0});
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = local();
  const ThreadLog::Frame f = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t dur = end - f.start;
  LayerTotals& t = log.totals[static_cast<std::size_t>(f.layer)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur >= f.child_ns ? dur - f.child_ns : 0;
  std::uint64_t parent = 0;
  if (!log.stack.empty()) {
    log.stack.back().child_ns += dur;
    parent = log.stack.back().id;
  }
  if (log.spans.size() < span_cap_) {
    log.spans.push_back({f.id, parent, f.start, end, f.op, f.layer,
                         log.thread});
  }
}

void Tracer::sample(const rr::wire::Message& msg) {
  ThreadLog& log = local();
  const std::uint64_t n = log.offered++;
  if (log.sample.size() < sample_cap_) {
    log.sample.push_back(msg);
  } else if (sample_cap_ > 0 && n % 64 == 0) {
    log.sample[(n / 64) % sample_cap_] = msg;
  }
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& log : logs_) {
    log->totals = {};
    log->spans.clear();
    log->sample.clear();
    log->offered = 0;
  }
}

std::array<LayerTotals, kLayers> Tracer::totals() const {
  std::array<LayerTotals, kLayers> sum{};
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      sum[i].count += log->totals[i].count;
      sum[i].total_ns += log->totals[i].total_ns;
      sum[i].self_ns += log->totals[i].self_ns;
    }
  }
  return sum;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

std::vector<rr::wire::Message> Tracer::samples() const {
  std::vector<rr::wire::Message> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    out.insert(out.end(), log->sample.begin(), log->sample.end());
  }
  return out;
}

void TracedContext::send(ProcessId to, rr::wire::Message msg) {
  const ScopedSpan span(&tracer_, Layer::Send,
                        tracer_.op_between(inner_.self(), to));
  inner_.send(to, std::move(msg));
}

void TracedProcess::on_start(rr::net::Context& ctx) {
  TracedContext traced(ctx, tracer_);
  inner_->on_start(traced);
}

void TracedProcess::on_message(rr::net::Context& ctx, ProcessId from,
                               const rr::wire::Message& msg) {
  tracer_.sample(msg);
  const ScopedSpan span(&tracer_, layer_,
                        tracer_.op_between(ctx.self(), from));
  TracedContext traced(ctx, tracer_);
  inner_->on_message(traced, from, msg);
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const char* send_layer_name) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : tracer.spans()) {
    const char* name =
        s.layer == Layer::Send ? send_layer_name : layer_name(s.layer);
    const double ts =
        static_cast<double>(s.start_ns - tracer.epoch_ns()) / 1000.0;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                 "\"args\":{\"op\":\"%d#%u\",\"span\":%llu,\"parent\":%llu,"
                 "\"thread\":%u}}",
                 first ? "" : ",", name, name, ts, dur, s.op.client, s.op.seq,
                 s.op.client, s.op.seq,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
