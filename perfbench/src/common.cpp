#include "common.hpp"

#include <cmath>
#include <limits>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

void RunEnter::reset() {
  first_enter_.store(std::numeric_limits<std::int64_t>::max());
  last_exit_.store(0);
}

void RunEnter::body_enter() {
  const std::int64_t t = ns_now();
  std::int64_t cur = first_enter_.load();
  while (t < cur && !first_enter_.compare_exchange_weak(cur, t)) {
  }
}

void RunEnter::body_exit() {
  const std::int64_t t = ns_now();
  std::int64_t cur = last_exit_.load();
  while (t > cur && !last_exit_.compare_exchange_weak(cur, t)) {
  }
}

double RunEnter::finish(Clock::time_point call, Clock::time_point ret) const {
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  const std::int64_t in = first_enter_.load() - ns(call);
  const std::int64_t out = ns(ret) - last_exit_.load();
  return static_cast<double>(std::max<std::int64_t>(in, 0) +
                             std::max<std::int64_t>(out, 0)) *
         1e-9;
}

void step_loop(const BlockCtx& b, int rank, std::int64_t first, int n,
               const std::function<void(std::int64_t)>& step) {
  if (b.enter != nullptr) b.enter->body_enter();
  {
    Span blk(b.tr, rank, SpanName::block);
    const bool timed = rank == 0 && b.arm != nullptr;
    const Clock::time_point start = Clock::now();
    for (int s = 0; s < n; ++s) {
      const Clock::time_point t0 = Clock::now();
      if (b.tr != nullptr) b.tr->set_step(rank, first + s);
      {
        Span st(b.tr, rank, SpanName::step);
        step(first + s);
      }
      if (timed) {
        b.arm->step_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      if (rank == 0 && b.peaks != nullptr) b.peaks->sample(*b.tracker);
    }
    if (timed) {
      b.arm->busy_s += seconds_since(start);
      b.arm->steps += static_cast<std::size_t>(n);
    }
  }
  if (b.enter != nullptr) b.enter->body_exit();
}

bool keep_running(const Args& a, Clock::time_point start, std::size_t steps) {
  return steps < 110 || seconds_since(start) < a.seconds;
}

int block_steps(const Args& a, double step_s, int min_steps) {
  const double block_s = a.tiny ? 0.02 : 0.2;
  if (!(step_s > 0)) return min_steps;
  return std::max(min_steps, static_cast<int>(block_s / step_s));
}

void report_steps(Result& r, const ArmStats& a) {
  r.set("steps_per_s", a.steps_per_s(), "1/s");
  r.set("step_us_p50", percentile(a.step_us, 50), "us");
  r.set("step_us_p90", percentile(a.step_us, 90), "us");
  r.info["step_samples"] = std::to_string(a.step_us.size());
  // p90 is only reported from a sample that leaves >= 10 samples above it.
  const std::size_t n = a.step_us.size();
  const auto at = static_cast<std::size_t>(std::ceil(0.9 * n));
  r.check("p90_has_10_samples_beyond", n >= at + 10,
          std::to_string(n) + " step samples");
}

void report_setup(Result& r, const std::vector<double>& setup_s) {
  r.set("setup_s", median(setup_s), "s");
  r.info["setup_samples"] = std::to_string(setup_s.size());
}

void report_category_peaks(Result& r, const CategoryPeaks& p) {
  using hlsmpc::memtrack::Category;
  r.set("memtrack.app_mb", mb(p.peak[static_cast<int>(Category::app)]), "MB");
  r.set("memtrack.hls_shared_mb",
        mb(p.peak[static_cast<int>(Category::hls_shared)]), "MB");
  r.set("memtrack.runtime_buffers_mb",
        mb(p.peak[static_cast<int>(Category::runtime_buffers)]), "MB");
  r.set("memtrack.runtime_other_mb",
        mb(p.peak[static_cast<int>(Category::runtime_other)]), "MB");
}

void report_mem_saved(Result& r, std::size_t hls_peak, std::size_t priv_peak,
                      int ranks, int instances, std::size_t table_bytes) {
  const double saved = mb(priv_peak) - mb(hls_peak);
  const double expect =
      mb(static_cast<std::size_t>(ranks - instances) * table_bytes);
  r.set("mem_saved_mb", saved, "MB");
  r.info["mem_saved_expected_mb"] = std::to_string(expect);
  r.check("mem_saved_matches_copy_count",
          std::abs(saved - expect) <= 0.01 * expect,
          "saved " + std::to_string(saved) + " MB, expected (" +
              std::to_string(ranks) + " - " + std::to_string(instances) +
              ") x table = " + std::to_string(expect) + " MB");
}

void report_trace(Result& r, const Tracer& tr, const Args& a,
                  double untraced_steps_per_s, double traced_steps_per_s) {
  const TraceSummary s = summarize(tr);
  const auto tot = [&](SpanName n) {
    return s.total_s[static_cast<int>(n)];
  };
  const auto cnt = [&](SpanName n) {
    return static_cast<double>(s.count[static_cast<int>(n)]);
  };
  r.set("kernel.busy_s", tot(SpanName::kernel), "s");
  r.set("hls.storage.first_touch_s", tot(SpanName::hls_first_touch), "s");
  r.set("hls.sync.single_init_s", tot(SpanName::hls_single_init), "s");
  r.set("hls.get_addr.ns_mean",
        cnt(SpanName::hls_get_addr) > 0
            ? tot(SpanName::hls_get_addr) * 1e9 / cnt(SpanName::hls_get_addr)
            : 0,
        "ns");
  r.set("hls.sync.single_exec_s", tot(SpanName::hls_single_exec), "s");
  r.set("hls.sync.single_wait_s",
        s.self_s[static_cast<int>(SpanName::hls_single)], "s");
  r.set("hls.sync.barrier_wait_s", tot(SpanName::hls_barrier), "s");
  r.set("mpi.p2p.wait_s", tot(SpanName::mpi_p2p) + tot(SpanName::net_p2p),
        "s");
  r.set("mpi.coll.allreduce_s", tot(SpanName::mpi_allreduce), "s");
  r.set("mpi.coll.allgather_s", tot(SpanName::mpi_allgather), "s");
  r.set("mpi.coll.barrier_s", tot(SpanName::mpi_barrier), "s");
  r.set("hls.pagecache.flush_s", tot(SpanName::hls_flush), "s");
  r.set("hls.checkpoint.save_s", tot(SpanName::hls_ckpt_save), "s");
  r.set("hls.checkpoint.restore_s", tot(SpanName::hls_ckpt_restore), "s");
  r.set("trace.coverage", s.coverage, "ratio");
  r.set("trace.overhead",
        untraced_steps_per_s > 0
            ? 1.0 - traced_steps_per_s / untraced_steps_per_s
            : 0,
        "ratio");
  r.info["spans"] = std::to_string(s.nspans);
  r.check("span_tree_well_formed", s.well_formed,
          s.well_formed ? std::to_string(s.nspans) + " spans"
                        : s.first_error);
  if (!a.span_file.empty()) {
    write_span_file(tr, a.span_file);
    r.info["span_file"] = a.span_file;
  }
}

}  // namespace perfbench
