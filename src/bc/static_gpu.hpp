// Static betweenness centrality on the simulated GPU (Jia et al. [13]).
//
// This is the paper's recomputation baseline (Table III) and the workload
// behind Fig. 1's thread-block sweep. One kernel launch processes every
// source: block b handles sources b, b+nblocks, ... (coarse-grained
// parallelism), and within a block the BFS + dependency stages use either
// edge-parallel (one thread per directed arc, whole arc list scanned per
// level) or node-parallel (explicit frontier queues) fine-grained mapping.
#pragma once

#include "bc/bc_store.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

class ParallelismPolicy;  // bc/adaptive_policy.hpp

enum class Parallelism { kEdge, kNode };

inline const char* to_string(Parallelism p) {
  return p == Parallelism::kEdge ? "Edge" : "Node";
}

class StaticGpuBc {
 public:
  /// `track_atomic_conflicts` turns on the device's per-address atomic
  /// conflict accounting (sim.atomic_conflicts.* metrics).
  StaticGpuBc(sim::DeviceSpec spec, Parallelism mode,
              sim::CostModel cost = {}, bool track_atomic_conflicts = false);

  /// Recomputes the store (all rows + BC) from scratch on the simulated
  /// device. `num_blocks` <= 0 launches one block per SM (the paper's
  /// choice); Fig. 1 passes explicit block counts.
  sim::KernelStats compute(const CSRGraph& g, BcStore& store,
                           int num_blocks = 0);

  const sim::DeviceSpec& spec() const { return device_.spec(); }
  sim::Device& device() { return device_; }

  /// Adaptive parallelism: when set, every launch plans a per-source
  /// edge/node decision through the policy (and feeds measured modeled
  /// cycles back). Null restores the fixed `mode` behavior. Not owned.
  void set_policy(ParallelismPolicy* policy) { policy_ = policy; }

 private:
  sim::Device device_;
  Parallelism mode_;
  ParallelismPolicy* policy_ = nullptr;
};

}  // namespace bcdyn
