#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gAllocCount{0};

}  // namespace

// Global allocation hooks: count every heap allocation.  They live in their
// own translation unit so no caller's inlined allocation is ever paired
// with the free() below at compile time.
void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vsstat::bench {

std::uint64_t heapAllocations() noexcept {
  return gAllocCount.load(std::memory_order_relaxed);
}

}  // namespace vsstat::bench
