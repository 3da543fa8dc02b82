// The replacement allocation functions live in their own translation unit:
// GCC never sees a call site that pairs them, so it has no malloc/free
// pairing to flag as -Wmismatched-new-delete.
#include "counting_alloc.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_frees{0};

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

std::uint64_t rr::test::heap_allocs() { return g_heap_allocs.load(); }
std::uint64_t rr::test::heap_frees() { return g_heap_frees.load(); }

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's buffer uses them): memory they
// return is freed by the plain operator delete below, so an allocator that
// left them to the runtime would pair its new with our free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
