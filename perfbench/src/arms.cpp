#include "arms.hpp"

namespace perfbench {

void Arm::block(Tracer* tr, CategoryPeaks* peaks, ArmStats* timed,
                std::int64_t first, int n) {
  run.block(tr, peaks, timed, first, n,
            [&](hlsmpc::mpi::Comm& w, hlsmpc::hls::TaskView& v, int rank,
                std::int64_t s) {
              step(w, v, tr, rank, s, sums[static_cast<std::size_t>(rank)]);
            });
}

namespace {

/// Warm every arm with the same steps; returns the HLS arm's step time.
double warm_up(const std::vector<Arm*>& arms, int steps) {
  double step_s = 0;
  for (Arm* arm : arms) {
    const Clock::time_point t0 = Clock::now();
    arm->block(nullptr, nullptr, nullptr, 0, steps);
    if (arm == arms.front()) step_s = seconds_since(t0) / steps;
  }
  return step_s;
}

}  // namespace

void run_compare(const Args& a, Result& r, const CompareSpec& spec) {
  Tracer tracer(spec.ranks);
  Tracer* tr = a.trace ? &tracer : nullptr;

  Phase p;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Arm> hls = spec.make(ArmKind::hls, tr);
  p.setup_s.push_back(seconds_since(t0));
  const LayerCounters setup_counts = read_counters(*hls->run.node);

  std::unique_ptr<Arm> priv, seq;
  std::vector<Arm*> arms{hls.get()};
  if (!a.trace) {
    priv = spec.make(ArmKind::priv, nullptr);
    seq = spec.make(ArmKind::seq, nullptr);
    arms.push_back(priv.get());
    arms.push_back(seq.get());
  }
  const int block = block_steps(a, warm_up(arms, spec.warmup_steps), 10);
  r.info["block_steps"] = std::to_string(block);
  p.step = spec.warmup_steps;
  timed_phase(
      a, tr, block, p,
      [&](Tracer* t, CategoryPeaks* peaks, ArmStats* timed, std::int64_t first,
          int n) { hls->block(t, peaks, timed, first, n); },
      [&] { return read_counters(*hls->run.node); },
      [&] {
        return time_setup([&] { return spec.make(ArmKind::hls, nullptr); });
      },
      [&](std::int64_t first) {
        for (Arm* arm : {priv.get(), seq.get()}) {
          arm->block(nullptr, nullptr, &arm->run.stats, first, block);
        }
      });

  if (!a.trace) {
    report_setup(r, p.setup_s);
    report_steps(r, p.untraced);
    const double hls_p50 = percentile(p.untraced.step_us, 50);
    r.set("hls_speedup", percentile(priv->run.stats.step_us, 50) / hls_p50,
          "ratio");
    r.set("parallel_eff", percentile(seq->run.stats.step_us, 50) / hls_p50,
          "ratio");
    const std::size_t hls_peak = hls->run.node->tracker().peak_total();
    r.set("node_peak_mb", mb(hls_peak), "MB");
    report_mem_saved(r, hls_peak, priv->run.node->tracker().peak_total(),
                     spec.ranks, spec.instances, spec.table_bytes);
    std::vector<std::uint64_t> expect = priv->sums;
    if (a.corrupt_expected) expect[0] ^= 1;
    int mismatched = 0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      mismatched += hls->sums[i] != expect[i] ? 1 : 0;
    }
    r.check("hls_checksum_equals_private", mismatched == 0,
            std::to_string(mismatched) + " of " +
                std::to_string(expect.size()) + " rank checksums differ over " +
                std::to_string(p.step) + " steps");
    return;
  }
  report_layer_counts(r, p.counts, setup_counts);
  report_category_peaks(r, p.peaks);
  r.set("ult.run_enter_s", hls->run.run_enter_s, "s");
  const auto traced_steps = static_cast<double>(p.traced.steps);
  r.set("kernel.flops", traced_steps * spec.kernel_flops_per_step, "count");
  r.set("kernel.bytes_computed", traced_steps * spec.kernel_bytes_per_step,
        "B");
  report_trace(r, tracer, a, p.untraced.steps_per_s(), p.traced.steps_per_s());
}

}  // namespace perfbench
