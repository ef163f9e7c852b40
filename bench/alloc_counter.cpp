#include "alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<std::int64_t> gLiveBytes{0};
std::atomic<std::int64_t> gPeakBytes{0};
std::atomic<std::int64_t> gBaseBytes{0};

}  // namespace

// Global allocation hooks: count every heap allocation and track live
// bytes.  They live in their own translation unit so no caller's inlined
// allocation is ever paired with the free() below at compile time.
void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      gLiveBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = gPeakBytes.load(std::memory_order_relaxed);
  while (live > peak && !gPeakBytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  gLiveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace vsstat::bench {

std::uint64_t heapAllocations() noexcept {
  return gAllocCount.load(std::memory_order_relaxed);
}

void resetHeapPeak() noexcept {
  const std::int64_t live = gLiveBytes.load(std::memory_order_relaxed);
  gBaseBytes.store(live, std::memory_order_relaxed);
  gPeakBytes.store(live, std::memory_order_relaxed);
}

std::uint64_t heapPeakBytes() noexcept {
  const std::int64_t above = gPeakBytes.load(std::memory_order_relaxed) -
                             gBaseBytes.load(std::memory_order_relaxed);
  return above > 0 ? static_cast<std::uint64_t>(above) : 0;
}

}  // namespace vsstat::bench
