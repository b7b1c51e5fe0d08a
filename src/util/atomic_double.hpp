// Atomic accumulation into plain double arrays via std::atomic_ref.
//
// The simulated GPU engines update the shared BC array from thread blocks
// exactly like the paper's kernels do with atomicAdd, so the kernel code
// keeps the shape a CUDA port needs. Every add is a relaxed
// compare-exchange loop through std::atomic_ref. The simulated devices run
// blocks one at a time on the calling thread, so the loop never retries and
// the sums fold in a fixed order: results are bit-deterministic.
#pragma once

#include <atomic>
#include <span>

namespace bcdyn::util {

inline void atomic_add(std::span<double> values, std::size_t index,
                       double delta) {
  std::atomic_ref<double> ref(values[index]);
  double expected = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(expected, expected + delta,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace bcdyn::util
