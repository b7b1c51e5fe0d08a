#include "gpusim/kernel_stats.hpp"

#include <algorithm>
#include <cstdio>

namespace bcdyn::sim {

BlockCounters& BlockCounters::operator+=(const BlockCounters& o) {
  rounds += o.rounds;
  items += o.items;
  host_items += o.host_items;
  instrs += o.instrs;
  global_reads += o.global_reads;
  global_writes += o.global_writes;
  atomics += o.atomics;
  atomic_conflicts += o.atomic_conflicts;
  barriers += o.barriers;
  cycles += o.cycles;
  return *this;
}

KernelStats& KernelStats::operator+=(const KernelStats& o) {
  total += o.total;
  max_block_cycles = std::max(max_block_cycles, o.max_block_cycles);
  makespan_cycles += o.makespan_cycles;  // launches run back to back
  seconds += o.seconds;
  num_blocks += o.num_blocks;
  launches += o.launches;
  return *this;
}

std::string KernelStats::to_string() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "launches=%d blocks=%d rounds=%llu items=%llu host_items=%llu "
                "reads=%llu "
                "writes=%llu atomics=%llu barriers=%llu max_block=%.0fcyc "
                "makespan=%.0fcyc time=%.6fs",
                launches, num_blocks,
                static_cast<unsigned long long>(total.rounds),
                static_cast<unsigned long long>(total.items),
                static_cast<unsigned long long>(total.host_items),
                static_cast<unsigned long long>(total.global_reads),
                static_cast<unsigned long long>(total.global_writes),
                static_cast<unsigned long long>(total.atomics),
                static_cast<unsigned long long>(total.barriers),
                max_block_cycles, makespan_cycles, seconds);
  return buf;
}

}  // namespace bcdyn::sim
