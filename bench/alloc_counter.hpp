// Heap-allocation counter of the perf benches.  alloc_counter.cpp replaces
// the global operator new/delete for every binary linked against
// vsstat_bench_common; benches difference this count around a timed region
// to report exact allocations per sample, iteration, or fit.
#ifndef VSSTAT_BENCH_ALLOC_COUNTER_HPP
#define VSSTAT_BENCH_ALLOC_COUNTER_HPP

#include <cstdint>

namespace vsstat::bench {

/// Heap allocations (operator new / new[]) since process start.
[[nodiscard]] std::uint64_t heapAllocations() noexcept;

}  // namespace vsstat::bench

#endif  // VSSTAT_BENCH_ALLOC_COUNTER_HPP
