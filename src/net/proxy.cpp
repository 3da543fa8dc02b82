#include "net/proxy.hpp"

#include "common/assert.hpp"

namespace rr::net {

void ChannelProxy::crash(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  std::atomic_ref(crashed_[static_cast<std::size_t>(pid)])
      .store(1, std::memory_order_release);
  if (held_count_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard lock(mu_);
  for (auto it = backlogs_.begin(); it != backlogs_.end();) {
    const auto from = static_cast<ProcessId>(it->first >> 32);
    const auto to = static_cast<ProcessId>(it->first & 0xffffffffu);
    if (from != pid && to != pid) {
      ++it;
      continue;
    }
    dropped_.fetch_add(it->second.size(), std::memory_order_relaxed);
    it->second.clear();
    spare_.push_back(std::move(it->second));
    it = backlogs_.erase(it);
  }
}

void ChannelProxy::set_held(ProcessId from, ProcessId to) {
  RR_ASSERT(from >= 0 && from < num_processes());
  RR_ASSERT(to >= 0 && to < num_processes());
  held_.insert(chan_key(from, to));
  held_count_.store(held_.size(), std::memory_order_release);
}

void ChannelProxy::hold(ProcessId from, ProcessId to) {
  std::lock_guard lock(mu_);
  set_held(from, to);
}

void ChannelProxy::hold_all(ProcessId pid) {
  std::lock_guard lock(mu_);
  for (ProcessId q = 0; q < num_processes(); ++q) {
    if (q == pid) continue;  // the self-channel pid -> pid is never used
    set_held(pid, q);
    set_held(q, pid);
  }
}

bool ChannelProxy::held(ProcessId from, ProcessId to) const {
  std::lock_guard lock(mu_);
  return held_.count(chan_key(from, to)) != 0;
}

bool ChannelProxy::park(ProcessId from, ProcessId to, wire::Message& msg,
                        int copies) {
  if (held_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock(mu_);
  if (held_.count(chan_key(from, to)) == 0) return false;
  if (crashed(from) || crashed(to)) {
    // A backlog next to a crashed process could only ever be purged, so
    // post-crash sends do not refill it.
    dropped_.fetch_add(static_cast<std::uint64_t>(copies),
                       std::memory_order_relaxed);
    return true;
  }
  auto [it, inserted] = backlogs_.try_emplace(chan_key(from, to));
  if (inserted && !spare_.empty()) {
    it->second = std::move(spare_.back());
    spare_.pop_back();
  }
  for (int c = 1; c < copies; ++c) it->second.push_back(msg);
  it->second.push_back(std::move(msg));
  return true;
}

bool ChannelProxy::unhold(ProcessId from, ProcessId to,
                          std::vector<wire::Message>& backlog) {
  std::lock_guard lock(mu_);
  if (held_.erase(chan_key(from, to)) == 0) return false;
  held_count_.store(held_.size(), std::memory_order_release);
  const auto it = backlogs_.find(chan_key(from, to));
  if (it == backlogs_.end()) return false;
  backlog = std::move(it->second);
  backlogs_.erase(it);
  return true;
}

void ChannelProxy::recycle(std::vector<wire::Message>&& backlog) {
  backlog.clear();
  std::lock_guard lock(mu_);
  spare_.push_back(std::move(backlog));
}

}  // namespace rr::net
