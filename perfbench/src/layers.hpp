// Counter deltas of the runtime's public statistics (obs snapshot,
// TransportStats, fabric stats, page-cache stats), read before and after
// a phase, and the block runner for one mpc::Node.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "common.hpp"
#include "hls/hls.hpp"
#include "mpc/node.hpp"
#include "mpi/cluster.hpp"

namespace perfbench {

/// Counters outside the obs vocabulary.
enum class Stat {
  scope_bytes,  ///< bytes materialized by first touches (obs scope bytes)
  msgs, bytes, eager, rendezvous,         ///< node TransportStats
  shm_coll, shm_pipelined, shm_copied,    ///< node TransportStats
  net_msgs, net_bytes, net_retries,       ///< fabric TransportStats
  pc_hits, pc_misses, pc_preread, pc_writeback, pc_evictions,  ///< PageCache
  kCount
};

struct LayerCounters {
  std::array<std::uint64_t, hlsmpc::obs::kNumCounters> obs{};
  std::array<std::uint64_t, static_cast<std::size_t>(Stat::kCount)> stat{};

  std::uint64_t get(hlsmpc::obs::Counter c) const {
    return obs[static_cast<std::size_t>(c)];
  }
  std::uint64_t get(Stat s) const { return stat[static_cast<std::size_t>(s)]; }
  std::uint64_t& at(Stat s) { return stat[static_cast<std::size_t>(s)]; }

  LayerCounters& operator+=(const LayerCounters& o);
  LayerCounters operator-(const LayerCounters& o) const;
};

LayerCounters read_counters(hlsmpc::mpc::Node& n);
LayerCounters read_counters(hlsmpc::mpi::SimCluster& c,
                            const hlsmpc::obs::Recorder& rec);

/// Per-layer count metrics from the counter deltas of the traced phase,
/// and first-touch bytes from the set-up delta.
void report_layer_counts(Result& r, const LayerCounters& traced,
                         const LayerCounters& setup);

/// One arm (a program variant) hosted on its own node.
struct NodeArm {
  using StepFn = std::function<void(hlsmpc::mpi::Comm&, hlsmpc::hls::TaskView&,
                                    int rank, std::int64_t step)>;

  std::unique_ptr<hlsmpc::mpc::Node> node;
  ArmStats stats;
  RunEnter enter;
  double run_enter_s = 0;

  /// Run `n` steps from `first` on every rank. A non-null `timed` gets
  /// rank 0's step times; a non-null tracer records spans, samples `peaks`
  /// and accumulates run_enter_s.
  void block(Tracer* tr, CategoryPeaks* peaks, ArmStats* timed,
             std::int64_t first, int n, const StepFn& step);
};

/// What the timed phase of one workload measured.
struct Phase {
  ArmStats untraced;    ///< the measured arm's untraced blocks
  ArmStats traced;      ///< its traced blocks
  LayerCounters counts; ///< counter deltas summed over the traced blocks
  CategoryPeaks peaks;  ///< memtrack peaks over the traced blocks
  std::vector<double> setup_s;  ///< set-up samples (untraced runs)
  std::int64_t step = 0;        ///< number of the next step to run
};

/// Runs `n` steps from `first` of the measured arm: tracer, peaks to
/// sample and stats to time, each possibly null.
using BlockFn = std::function<void(Tracer*, CategoryPeaks*, ArmStats*,
                                   std::int64_t first, int n)>;

/// Alternate blocks of `n` steps until keep_running() says stop.
/// Untraced runs: each round is a block of the measured arm, then
/// `between(first)` (the other arms' blocks of the same steps) and one
/// set-up sample from `set_up()`. Traced runs: an untraced block, then a
/// traced one whose counter delta `read()` is summed.
void timed_phase(const Args& a, Tracer* tr, int n, Phase& p,
                 const BlockFn& block,
                 const std::function<LayerCounters()>& read,
                 const std::function<double()>& set_up,
                 const std::function<void(std::int64_t)>& between = {});

/// Executor settings for `ranks` ranks under a kernel-thread budget: one
/// thread per rank when the budget allows, else fibers on `max_threads`
/// workers.
hlsmpc::mpi::Options node_mpi_options(int ranks, bool fibers,
                                      int max_threads);

}  // namespace perfbench
