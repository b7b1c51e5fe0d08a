#include "bc/static_gpu.hpp"

#include <algorithm>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/static_kernels.hpp"

namespace bcdyn {

StaticGpuBc::StaticGpuBc(sim::DeviceSpec spec, Parallelism mode,
                         sim::CostModel cost, bool track_atomic_conflicts)
    : device_(std::move(spec), cost, track_atomic_conflicts), mode_(mode) {}

sim::KernelStats StaticGpuBc::compute(const CSRGraph& g, BcStore& store,
                                      int num_blocks) {
  if (num_blocks <= 0) num_blocks = device_.spec().num_sms;
  std::fill(store.bc().begin(), store.bc().end(), 0.0);
  const int k = store.num_sources();
  PlannedLaunch launch(SourceLaunchKind::kStatic, policy_, mode_,
                       [&](ParallelismPolicy& p) {
                         return p.plan_static(g, store);
                       });
  const sim::KernelStats stats = device_.launch(
      num_blocks,
      [&, num_blocks](sim::BlockContext& ctx) {
        std::vector<VertexId> order;
        std::vector<std::size_t> level_offsets;
        for (int si = ctx.block_id(); si < k; si += num_blocks) {
          launch.run(ctx, si, [&](Parallelism m) {
            detail::static_source(
                ctx, m, g, store.sources()[static_cast<std::size_t>(si)],
                store.dist_row(si), store.sigma_row(si), store.delta_row(si),
                store.bc(), order, level_offsets);
          });
        }
      },
      launch.name());
  launch.feedback();
  return stats;
}

}  // namespace bcdyn
