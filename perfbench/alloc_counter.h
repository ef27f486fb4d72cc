// Heap-allocation counters for the traced run. The benchmark binary
// replaces the global operator new; once counting is enabled every
// allocation bumps a counter owned by the allocating thread (a plain
// load+store on its own cache line, no locked instruction), and readers
// sum all threads' counters. A single shared atomic counter would put a
// contended read-modify-write on every allocation of the scoring threads
// (about 1,900 per scored pair); even so, the untraced run never enables
// counting.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Turns counting on for the rest of the process. Call before starting
/// the threads whose allocations should be counted.
void EnableAllocCounting();

/// Allocations made through operator new on every thread since counting
/// was enabled. Monotone; take differences around the code of interest.
AllocTotals ReadAllocTotals();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
