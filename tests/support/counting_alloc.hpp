// One counting replacement for the global operator new, shared by the tests
// that pin zero-allocation paths. A test binary built with
// tests/support/counting_alloc.cpp routes every heap allocation -- the
// library's as well as the test's -- through it, so a measured window can
// assert that the real code path allocated nothing.
#pragma once

#include <cstdint>

namespace rr::test {

/// Heap allocations made through operator new so far in this binary.
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace rr::test
