// Heap-allocation counter of the perf benches.  alloc_counter.cpp replaces
// the global operator new/delete for every binary linked against
// vsstat_bench_common; benches difference the allocation count around a
// timed region to report exact allocations per sample, iteration, or fit,
// and read the live-byte high-water mark of a region as its heap peak.
#ifndef VSSTAT_BENCH_ALLOC_COUNTER_HPP
#define VSSTAT_BENCH_ALLOC_COUNTER_HPP

#include <cstdint>

namespace vsstat::bench {

/// Heap allocations (operator new / new[]) since process start.
[[nodiscard]] std::uint64_t heapAllocations() noexcept;

/// Starts a heap high-water measurement at the current live bytes.
void resetHeapPeak() noexcept;

/// Highest live heap bytes (operator new, usable size) since the last
/// resetHeapPeak(), above the live bytes at that reset.
[[nodiscard]] std::uint64_t heapPeakBytes() noexcept;

}  // namespace vsstat::bench

#endif  // VSSTAT_BENCH_ALLOC_COUNTER_HPP
