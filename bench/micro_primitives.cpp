// Microbenchmarks (google-benchmark, host wall time) for the simulator's
// block-level primitives.
#include <benchmark/benchmark.h>

#include "micro_smoke.hpp"

#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/primitives.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcdyn;

const sim::DeviceSpec& spec() {
  static const sim::DeviceSpec s = sim::DeviceSpec::tesla_c2075();
  return s;
}
const sim::CostModel& cost() {
  static const sim::CostModel c;
  return c;
}

void BM_BitonicSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<VertexId> data(n);
  for (auto& v : data) v = static_cast<VertexId>(rng.next_below(1 << 20));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<VertexId> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    sim::block_bitonic_sort(ctx, work, n);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitonicSort)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BlockExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> data(n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint32_t> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim::block_exclusive_scan(ctx, work, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BlockExclusiveScan)->Arg(1024)->Arg(65536);

void BM_RemoveDuplicates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<VertexId> data(n);
  for (auto& v : data) v = static_cast<VertexId>(rng.next_below(n / 2));
  std::vector<VertexId> scratch;
  std::vector<std::uint32_t> flags;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<VertexId> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        sim::block_remove_duplicates(ctx, work, n, scratch, flags));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RemoveDuplicates)->Arg(256)->Arg(4096);

void BM_ChargingOverhead(benchmark::State& state) {
  // Cost of the simulator's instrumentation itself: an empty charged loop.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::BlockContext ctx(spec(), cost(), 0);
    ctx.parallel_for(n, [&](std::size_t) {
      ctx.charge_instr(1);
      ctx.charge_read(2);
    });
    benchmark::DoNotOptimize(ctx.cycles());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChargingOverhead)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  return bcdyn::bench::micro_main(argc, argv);
}
