// Execution context for one simulated thread block.
//
// Kernels written against this API look like the paper's pseudocode:
//
//   ctx.parallel_for(graph.num_arcs(), [&](std::size_t a) {
//     ctx.charge_read(d, src[a]);        // load d[arc_src[a]]
//     if (d[src[a]] != depth) return;    // divergent early-out
//     ...
//   });                                  // implicit barrier, charged
//
// parallel_for stripes items over `threads_per_block` SIMT threads: items
// [r*T, (r+1)*T) form round r, and the round is charged issue cost plus the
// *maximum* per-item cost in the round (lockstep divergence). Execution is
// sequential within a block, and the Device runs blocks one after another
// in a fixed order, so results are bit-deterministic.
//
// Charges come in two flavors. The addressed overloads
// (charge_read/write/atomic(array, index)) name the element they model
// touching, which feeds both atomic-conflict tracking and the opt-in
// sim::HazardDetector shadow pass; the legacy unaddressed overloads remain
// for structural charges (shared-memory staging, probe sequences) and are
// invisible to hazard detection. Cost and counter effects are identical
// between the two - the address only adds bookkeeping.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/hazard_detector.hpp"
#include "gpusim/kernel_stats.hpp"

namespace bcdyn::sim {

class BlockContext {
 public:
  /// Holds pointers to `spec` and `cost`; both must outlive the context
  /// (Device owns them for the production paths). Temporaries are rejected
  /// at compile time to keep the borrow honest.
  BlockContext(const DeviceSpec& spec, const CostModel& cost, int block_id,
               bool track_atomic_conflicts = false);
  BlockContext(DeviceSpec&&, const CostModel&, int, bool = false) = delete;
  BlockContext(const DeviceSpec&, CostModel&&, int, bool = false) = delete;
  BlockContext(BlockContext&&) noexcept;
  BlockContext& operator=(BlockContext&&) noexcept;
  ~BlockContext();

  int block_id() const { return block_id_; }
  int num_threads() const { return spec_->threads_per_block; }

  /// SIMT loop over n work items with an implicit trailing barrier.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    const auto threads = static_cast<std::size_t>(spec_->threads_per_block);
    double round_max = 0.0;
    std::size_t lane = 0;  // counts items into the round (no per-item division)
    for (std::size_t i = 0; i < n; ++i) {
      begin_item(i);
      fn(i);
      round_max = std::max(round_max, item_cycles_);
      ++counters_.items;
      ++counters_.host_items;
      if (++lane == threads) {
        close_round(round_max);
        round_max = 0.0;
        lane = 0;
      }
    }
    if (n % threads != 0 || n == 0) {
      // Final partial round - or, for n == 0, the empty round: every thread
      // still issues the zero-trip bounds check of the grid-stride loop, so
      // an empty launch costs one round of issue plus the barrier. Pinned
      // by gpusim tests; not a bug.
      close_round(round_max);
    }
    barrier();
  }

  /// parallel_for(n, fn) as the model sees it - the same rounds, round
  /// maxima, counters and atomic-conflict windows, bit for bit - with the
  /// host running `fn` only on the live items. `live(visit)` must call
  /// visit(first, last) for ascending, disjoint item ranges that cover
  /// every item not taking the body's uniform early exit: the one exit all
  /// other items take, after the same charges, with no side effect, atomic
  /// or barrier. A live range may also hold items that take that exit.
  /// The exit's cost is measured once per call by running `fn` on the
  /// first non-live item with every counter saved and restored; rounds
  /// still close one at a time with the same additions, so host work is
  /// O(n / threads + live). With the hazard shadow on, every item runs:
  /// the journal needs each item's addresses.
  template <typename Live, typename Fn>
  void parallel_for_live(std::size_t n, Live&& live, Fn&& fn) {
    if (shadow_) {
      parallel_for(n, fn);
      return;
    }
    const auto threads = static_cast<std::size_t>(spec_->threads_per_block);
    const auto warp = static_cast<std::size_t>(spec_->warp_size);
    const std::size_t warps_per_round = (threads + warp - 1) / warp;
    double round_max = 0.0;
    std::size_t lane = 0;
    std::size_t next = 0;  // first item neither run nor charged yet
    std::size_t window = 0;  // conflict window (round, warp) last entered
    UniformItem uniform;
    bool probed = false;
    const auto close_if_full = [&] {
      if (lane == threads) {
        close_round(round_max);
        round_max = 0.0;
        lane = 0;
      }
    };
    // Charges the uniform items [next, end), a round's share at a time.
    const auto skip_to = [&](std::size_t end) {
      if (end <= next) return;
      if (!probed) {
        uniform = probe_uniform(fn, next);
        probed = true;
      }
      while (next < end) {
        const std::size_t m = std::min(end - next, threads - lane);
        charge_uniform(uniform, m);
        round_max = std::max(round_max, uniform.cycles);
        next += m;
        lane += m;
        close_if_full();
      }
    };
    live([&](std::size_t first, std::size_t last) {
      assert(first >= next && last <= n);
      skip_to(first);
      for (; next < last; ++next) {
        if (track_conflicts_) {
          // The explicit loop clears the window on entering a warp; uniform
          // items issue no atomics, so only the live items' warps matter.
          const std::size_t w =
              next / threads * warps_per_round + lane / warp;
          if (w != window) {
            window_addresses_.clear();
            window = w;
          }
        }
        item_cycles_ = 0.0;
        current_item_ = next;
        in_item_ = true;
        fn(next);
        round_max = std::max(round_max, item_cycles_);
        ++counters_.items;
        ++counters_.host_items;
        ++lane;
        close_if_full();
      }
    });
    skip_to(n);
    if (n % threads != 0 || n == 0) close_round(round_max);
    barrier();
  }

  /// Explicit __syncthreads() charge for multi-phase shared-memory steps.
  void barrier();

  // --- charging API (call from inside work items) -----------------------
  void charge_instr(std::size_t k = 1) {
    item_cycles_ += cost_->instr_cycles * static_cast<double>(k);
    counters_.instrs += k;
  }
  void charge_read(std::size_t k = 1) {
    item_cycles_ += cost_->global_read_cycles * static_cast<double>(k);
    counters_.global_reads += k;
    round_reads_ += k;
    if (shadow_) note_untracked(k);
  }
  void charge_write(std::size_t k = 1) {
    item_cycles_ += cost_->global_write_cycles * static_cast<double>(k);
    counters_.global_writes += k;
    round_writes_ += k;
    if (shadow_) note_untracked(k);
  }

  /// Addressed read of arr[idx..idx+k): identical cost and counters to the
  /// unaddressed form, plus hazard tracking of the touched elements.
  template <typename Arr>
  void charge_read(const Arr& arr, std::size_t idx, std::size_t k = 1) {
    item_cycles_ += cost_->global_read_cycles * static_cast<double>(k);
    counters_.global_reads += k;
    round_reads_ += k;
    if (shadow_) {
      track(HazardAccess::kRead, address_of(arr, idx), element_size(arr), k);
    }
  }

  /// Addressed write of arr[idx..idx+k).
  template <typename Arr>
  void charge_write(const Arr& arr, std::size_t idx, std::size_t k = 1) {
    item_cycles_ += cost_->global_write_cycles * static_cast<double>(k);
    counters_.global_writes += k;
    round_writes_ += k;
    if (shadow_) {
      track(HazardAccess::kWrite, address_of(arr, idx), element_size(arr), k);
    }
  }

  /// Queue-tail style counter atomics: on hardware these are warp-
  /// aggregated (one atomic per warp, Merrill et al.), so they are charged
  /// but never counted as same-address conflicts.
  void charge_atomic_aggregated() {
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    if (shadow_) note_untracked(1);
  }

  /// `address_key`: a stable id for the memory location - used to model
  /// same-address serialization when conflict tracking is on. The conflict
  /// window is one *warp* (the hardware serializes simultaneous
  /// same-address atomics within a warp; across warps they interleave
  /// through the memory pipeline).
  void charge_atomic(std::uint64_t address_key = 0) {
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    note_atomic_conflict(address_key);
    if (shadow_) note_untracked(1);
  }

  /// Addressed atomic RMW on arr[idx]. The element's host address doubles
  /// as the serialization key, so conflict counts match the unaddressed
  /// form exactly (the key remap is injective: distinct elements, distinct
  /// addresses). Atomics never hazard against each other or against reads.
  template <typename Arr>
  void charge_atomic(const Arr& arr, std::size_t idx) {
    const std::uint64_t address = address_of(arr, idx);
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    note_atomic_conflict(address);
    if (shadow_) track(HazardAccess::kAtomic, address, 0, 1);
  }

  const BlockCounters& counters() const { return counters_; }
  double cycles() const { return counters_.cycles; }

  /// The block's shadow journal, or null when the hazard detector was off
  /// at construction. Device/DeviceGroup fold these after the launch.
  const BlockHazardState* hazard_state() const;

 private:
  struct Shadow;  // shadow-memory window + journal, in block_context.cpp

  template <typename Arr>
  static std::uint64_t address_of(const Arr& arr, std::size_t idx) {
    return reinterpret_cast<std::uint64_t>(
        static_cast<const void*>(arr.data() + idx));
  }
  template <typename Arr>
  static constexpr std::size_t element_size(const Arr& arr) {
    return sizeof(*arr.data());
  }

  /// The charges of parallel_for_live's uniform early exit, per item.
  struct UniformItem {
    double cycles = 0.0;
    std::uint64_t instrs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  /// Runs fn(item) as a probe and returns its charges, leaving every
  /// counter and per-item state as it found them except host_items.
  template <typename Fn>
  UniformItem probe_uniform(Fn& fn, std::size_t item) {
    const BlockCounters saved = counters_;
    const std::size_t reads = round_reads_;
    const std::size_t writes = round_writes_;
    const std::size_t atomics = round_atomics_;
    const std::uint64_t saved_item = current_item_;
    const bool saved_in_item = in_item_;
    item_cycles_ = 0.0;
    current_item_ = item;
    in_item_ = true;
    fn(item);
    const UniformItem uniform{item_cycles_, counters_.instrs - saved.instrs,
                              counters_.global_reads - saved.global_reads,
                              counters_.global_writes - saved.global_writes};
    const bool clean = counters_.atomics == saved.atomics &&
                       counters_.rounds == saved.rounds &&
                       counters_.barriers == saved.barriers;
    counters_ = saved;
    round_reads_ = reads;
    round_writes_ = writes;
    round_atomics_ = atomics;
    current_item_ = saved_item;
    in_item_ = saved_in_item;
    ++counters_.host_items;
    if (!clean) {
      throw std::logic_error(
          "parallel_for_live: the uniform early exit must not issue atomics "
          "or barriers");
    }
    return uniform;
  }
  void charge_uniform(const UniformItem& u, std::size_t m) {
    const auto k = static_cast<std::uint64_t>(m);
    counters_.instrs += k * u.instrs;
    counters_.global_reads += k * u.reads;
    counters_.global_writes += k * u.writes;
    counters_.items += k;
    round_reads_ += k * u.reads;
    round_writes_ += k * u.writes;
  }

  void begin_item(std::size_t item) {
    item_cycles_ = 0.0;
    if (track_conflicts_ &&
        ++items_in_warp_ > static_cast<std::size_t>(spec_->warp_size)) {
      window_addresses_.clear();
      items_in_warp_ = 1;
    }
    current_item_ = item;
    in_item_ = true;
  }
  void close_round(double round_max);
  void note_atomic_conflict(std::uint64_t address_key) {
    if (!track_conflicts_) return;
    const auto hits = ++window_addresses_[address_key];
    if (hits > 1) {
      item_cycles_ += cost_->atomic_conflict_cycles;
      ++counters_.atomic_conflicts;
    }
  }
  // Shadow-pass helpers; only called when shadow_ is non-null.
  void note_untracked(std::size_t k);
  void track(HazardAccess kind, std::uint64_t address, std::size_t stride,
             std::size_t k);
  void note_access(HazardAccess kind, std::uint64_t address);

  const DeviceSpec* spec_;
  const CostModel* cost_;
  int block_id_;
  bool track_conflicts_;
  BlockCounters counters_;
  double item_cycles_ = 0.0;
  std::size_t round_reads_ = 0;
  std::size_t round_writes_ = 0;
  std::size_t round_atomics_ = 0;
  std::size_t items_in_warp_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> window_addresses_;
  std::uint64_t current_item_ = 0;
  bool in_item_ = false;
  std::unique_ptr<Shadow> shadow_;
};

}  // namespace bcdyn::sim
