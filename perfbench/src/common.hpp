// Shared pieces of the end-to-end benchmark: run arguments, the result
// record every workload fills, seeded input generation, step statistics
// and the closed-loop block runner.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "memtrack/memtrack.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: small tables, short phases.
  bool tiny = false;
  /// Negative self-test: perturb one expected value on the benchmark side.
  bool corrupt_expected = false;
  /// Where the traced run writes its span file.
  std::string span_file;
  /// Scratch directory inside the checkout (storage tier, checkpoints).
  std::string work_dir = ".";
  /// Kernel threads one process may run: min(4, nproc).
  int max_threads = 4;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds every metric that
/// applies to the workload; `not_applicable` names the rest.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> not_applicable;
  std::map<std::string, std::string> info;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
};

// ---- seeded inputs ----------------------------------------------------

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic stream keyed by (seed, a, b): the same key gives the same
/// values on every arm and every rank that asks.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
      : s_(splitmix64(seed ^ splitmix64(a * 0x100000001b3ULL + b))) {}
  std::uint64_t next() {
    s_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Order-sensitive fold of a double's bits into a running checksum.
inline std::uint64_t mix(std::uint64_t acc, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof v);
  return splitmix64(acc ^ bits);
}

// ---- step statistics --------------------------------------------------

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Steps of one arm, accumulated over its blocks.
struct ArmStats {
  std::vector<double> step_us;  ///< rank 0, one per timed step
  double busy_s = 0;            ///< rank 0's wall time in the blocks' loops
  std::size_t steps = 0;
  double steps_per_s() const { return busy_s > 0 ? steps / busy_s : 0; }
};

/// Peak of each memtrack category, sampled at step ends.
struct CategoryPeaks {
  std::size_t peak[hlsmpc::memtrack::kNumCategories] = {};
  void sample(const hlsmpc::memtrack::Tracker& t) {
    const hlsmpc::memtrack::Snapshot s = t.snapshot();
    for (int c = 0; c < hlsmpc::memtrack::kNumCategories; ++c) {
      peak[c] = std::max(peak[c], s.current_by_category[c]);
    }
  }
};

/// Wall time spent getting into and out of a runtime's run(): from the
/// call to the first rank's body entry, plus from the last body exit to
/// the return.
class RunEnter {
 public:
  void reset();
  void body_enter();
  void body_exit();
  /// Call around the run() call; returns this call's enter+exit time.
  double finish(Clock::time_point call, Clock::time_point ret) const;

 private:
  std::atomic<std::int64_t> first_enter_{0};
  std::atomic<std::int64_t> last_exit_{0};
};

/// One block of a closed loop on every rank: `n` steps numbered from
/// `first`, each closed by the step body's own collective. Rank 0 records
/// per-step wall times into `arm` (when non-null); in traced runs every
/// step is a span under one block span per rank, and `peaks` (when
/// non-null) samples the tracker after each of rank 0's steps.
struct BlockCtx {
  Tracer* tr = nullptr;
  ArmStats* arm = nullptr;
  const hlsmpc::memtrack::Tracker* tracker = nullptr;
  CategoryPeaks* peaks = nullptr;
  RunEnter* enter = nullptr;
};

void step_loop(const BlockCtx& b, int rank, std::int64_t first, int n,
               const std::function<void(std::int64_t)>& step);

/// Whether a timed phase goes on after a block: until `a.seconds` have
/// passed, and never before `steps` leave 10 samples beyond p90.
bool keep_running(const Args& a, Clock::time_point start, std::size_t steps);

/// Steps per block so one block lasts about 0.2 s (tiny: 0.02 s), from a
/// measured per-step time; at least `min_steps`.
int block_steps(const Args& a, double step_s, int min_steps);

/// Fill the end-to-end step metrics of the HLS (or only) arm.
void report_steps(Result& r, const ArmStats& a);

/// Wall time of one set-up: `make` builds and sets up a fresh instance,
/// which is torn down after the clock stops. Untraced runs take one
/// sample per round of blocks, so set-up is sampled across the whole
/// run rather than in one burst at its start.
template <class Make>
double time_setup(Make&& make) {
  const Clock::time_point t0 = Clock::now();
  auto instance = make();
  return seconds_since(t0);
}

/// Median of the set-up times, as `setup_s`.
void report_setup(Result& r, const std::vector<double>& setup_s);

/// MB as the tables print them (2^20 bytes).
inline double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Per-category peak metrics (memtrack.*_mb).
void report_category_peaks(Result& r, const CategoryPeaks& p);

/// Check that the HLS-vs-private memory saving matches
/// (ranks - scope instances) x table bytes within 1%, and report it.
void report_mem_saved(Result& r, std::size_t hls_peak, std::size_t priv_peak,
                      int ranks, int instances, std::size_t table_bytes);

/// Trace-derived per-layer metrics shared by every workload, plus the
/// well-formedness check and the span file.
void report_trace(Result& r, const Tracer& tr, const Args& a,
                  double untraced_steps_per_s, double traced_steps_per_s);

// Workload entry points.
Result run_eos_read(const Args& a);
Result run_table_update(const Args& a);
Result run_cluster_coll(const Args& a);
Result run_ckpt_spill(const Args& a);

}  // namespace perfbench
