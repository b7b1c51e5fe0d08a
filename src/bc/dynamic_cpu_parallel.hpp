// Multi-core CPU dynamic betweenness centrality (paper §VI future work:
// "there are plenty of other graph algorithms that can benefit from ...
// parallelism on multi-core CPUs").
//
// The same coarse-grained decomposition as the GPU engines - sources are
// independent - mapped onto a host thread pool: each worker owns a private
// DynamicCpuEngine (scratch arrays are per-worker), sources are dealt out
// in contiguous chunks, and the shared BC array is updated with atomic
// adds. Results equal the sequential engine's up to the floating-point
// reduction order of those adds.
#pragma once

#include <memory>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/dynamic_cpu.hpp"
#include "graph/csr_graph.hpp"
#include "util/thread_pool.hpp"

namespace bcdyn {

class DynamicCpuParallelEngine {
 public:
  /// `num_workers = 0` degenerates to inline (sequential) execution.
  DynamicCpuParallelEngine(VertexId num_vertices, int num_workers);

  /// Updates every source row of `store` plus the BC scores for the
  /// insertion of {u, v} (g must already contain the edge). Returns the
  /// per-source outcomes, indexed by source index.
  std::vector<SourceUpdateOutcome> insert_edge_update(const CSRGraph& g,
                                                      BcStore& store,
                                                      VertexId u, VertexId v);

  /// Decremental counterpart (g must no longer contain the edge).
  std::vector<SourceUpdateOutcome> remove_edge_update(const CSRGraph& g,
                                                      BcStore& store,
                                                      VertexId u, VertexId v);

  /// Summed operation counters across workers since construction.
  CpuOpCounters counters() const;

  /// Per-lane counters (lane = contiguous source chunk). The max lane
  /// delta across an update is the modeled multi-core makespan.
  std::vector<CpuOpCounters> lane_counters() const;

  int num_workers() const { return static_cast<int>(pool_.num_workers()); }

 private:
  template <typename PerSource>
  std::vector<SourceUpdateOutcome> run(BcStore& store, PerSource&& fn);

  util::ThreadPool pool_;
  std::vector<std::unique_ptr<DynamicCpuEngine>> engines_;  // one per lane
  std::vector<std::vector<double>> bc_deltas_;              // one per lane
};

}  // namespace bcdyn
