// Double-buffered, pipelined batch updates with modeled transfer/compute
// overlap (gpusim/stream.hpp).
//
// The synchronous batch path (bc/batch_update.hpp) models kernels only; a
// real streaming deployment also pays host-side staging (admitting edges
// against the dynamic adjacency, building the CSR snapshots) and the PCIe
// transfers that refresh the device-resident graph before every batch and
// bring the updated scores back after it. This module models that full
// chain per batch j:
//
//   classify_j -> H2D upload_j -> kernels_j -> D2H scores_j
//
// and runs it through `depth` = Options::pipeline_depth staging buffers:
// batch j's host staging and upload may start as soon as buffer slot
// (j mod depth) retires - i.e. after batch j-depth's scores landed - so
// with depth >= 2 batch j+1's staging and upload overlap batch j's
// kernels. depth == 1 is the fully
// serialized chain; its modeled time is exactly the sum of every batch's
// chain, which the tests assert.
//
// Scores are BIT-IDENTICAL to calling DynamicBc::insert_edge_batch on each
// batch in sequence, at every depth: the driver runs the exact same
// stage/run phases in the same order on the host, and only the *modeled
// schedule* changes with depth (the simulator's standing rule: host
// execution never depends on the modeled timeline).
//
// Transfer sizes follow the STINGER-style staging story of DESIGN.md: each
// batch re-uploads the post-batch CSR (row offsets, column indices, both
// directed-arc endpoint arrays) plus the accepted edge list, and downloads
// the n-vertex score vector.
#pragma once

#include <cstdint>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/update_outcome.hpp"

namespace bcdyn {

struct PipelineResult {
  /// Folded over batches exactly like UpdateOutcome aggregation elsewhere:
  /// counts summed, max_touched maxed, wall timings summed.
  /// total.modeled_seconds is the *pipelined* makespan (== modeled_seconds
  /// below), transfers and staging included.
  UpdateOutcome total;
  std::vector<UpdateOutcome> per_batch;  // engine-only modeled seconds each

  int depth = 1;
  int batches = 0;

  /// End-to-end modeled seconds of the pipelined schedule: from the start
  /// barrier to the last engine (SM array, copy engine, staging host)
  /// going idle.
  double modeled_seconds = 0.0;
  /// Sum of every batch's serialized chain (classify + upload + kernels +
  /// download): what depth == 1 costs, by construction.
  double serial_seconds = 0.0;
  /// serial_seconds / modeled_seconds; >= 1, and exactly 1 at depth 1.
  double overlap_efficiency = 1.0;

  std::uint64_t h2d_bytes = 0;  // summed over batches (and devices)
  std::uint64_t d2h_bytes = 0;
};

/// Bytes of one batch's modeled H2D refresh for `g` (the post-batch CSR:
/// row offsets, column indices, arc endpoints) plus `accepted_edges`
/// endpoint pairs. Exposed for the tests/benches that predict copy-engine
/// occupancy.
std::uint64_t pipeline_upload_bytes(const CSRGraph& g, int accepted_edges);

}  // namespace bcdyn
