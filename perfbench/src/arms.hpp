// The HLS / private-copy / sequential comparison shared by eos_read and
// table_update.
//
// The HLS arm shares one table per scope instance; the private arm gives
// every rank its own copy (the plain MPI program); the sequential arm
// runs one rank's problem on a 1-rank node. Arms run in alternating
// blocks of equal step counts, so all three see the same machine state
// and execute the same numbered steps — which is what lets the HLS and
// private checksums be compared bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "layers.hpp"

namespace perfbench {

enum class ArmKind { hls, priv, seq };

struct Arm {
  /// Step body; `tr` is the block's tracer (null when untraced) and `sum`
  /// the rank's running checksum.
  using StepFn = std::function<void(hlsmpc::mpi::Comm&, hlsmpc::hls::TaskView&,
                                    Tracer* tr, int rank, std::int64_t step,
                                    std::uint64_t& sum)>;
  NodeArm run;  // declared first: the step's state frees into its tracker
  StepFn step;
  std::vector<std::uint64_t> sums;

  void block(Tracer* tr, CategoryPeaks* peaks, ArmStats* timed,
             std::int64_t first, int n);
};

struct CompareSpec {
  /// Build the arm's node and state and run its set-up (first touch,
  /// shared init); a non-null tracer records the set-up spans.
  std::function<std::unique_ptr<Arm>(ArmKind, Tracer*)> make;
  int ranks = 0;
  int instances = 0;  ///< scope instances of the shared table
  std::size_t table_bytes = 0;
  int warmup_steps = 10;
  /// Kernel work of one HLS-arm step over all ranks, counted from sizes.
  double kernel_flops_per_step = 0;
  double kernel_bytes_per_step = 0;
};

/// Untraced: every end-to-end metric plus the output checks. Traced: the
/// HLS arm alone, alternating untraced and traced blocks, and every
/// per-layer metric.
void run_compare(const Args& a, Result& r, const CompareSpec& spec);

}  // namespace perfbench
