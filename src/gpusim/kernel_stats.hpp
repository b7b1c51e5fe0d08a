// Work counters collected by the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/cost_model.hpp"

namespace bcdyn::sim {

/// Counters for one thread block's execution of a kernel.
struct BlockCounters {
  std::uint64_t rounds = 0;
  std::uint64_t items = 0;       // modeled work items (every SIMT item charged)
  std::uint64_t host_items = 0;  // item bodies the host actually ran
  std::uint64_t instrs = 0;
  std::uint64_t global_reads = 0;
  std::uint64_t global_writes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t atomic_conflicts = 0;
  std::uint64_t barriers = 0;
  double cycles = 0.0;              // modeled block-sequential cycles

  BlockCounters& operator+=(const BlockCounters& o);
};

/// Aggregated result of one kernel launch (or, after operator+=, of a
/// sequence of launches run back to back).
struct KernelStats {
  BlockCounters total;      // summed over blocks of every launch
  double max_block_cycles = 0.0;  // max over all blocks of all launches
  double makespan_cycles = 0.0;  // greedy block->SM schedule, incl. overheads
  double seconds = 0.0;          // makespan / clock
  int num_blocks = 0;            // summed over launches
  int launches = 0;              // launches composed into this object

  /// Sequential composition: launches run back to back, so makespans and
  /// block counts add while max_block_cycles takes the max-of-max.
  KernelStats& operator+=(const KernelStats& o);
  std::string to_string() const;
};

}  // namespace bcdyn::sim
