// ckpt_spill: the storage tier and checkpoints. A node-scope array lives
// on the file tier behind a page-cache pool smaller than the array. Each
// step, ranks read the window their neighbour wrote last step through the
// page-cache-priced storage path, update the next window of their own
// slice from seeded values, and close with an HLS barrier. Every segment
// closes instead inside a `single`: the node is quiescent while the
// elected task flushes the tier and saves an incremental checkpoint.
// Set-up restores the starting state from a checkpoint; at the end a
// fresh node restores the newest one and must reproduce the live array
// bit for bit.
#include <cstring>
#include <filesystem>

#include "common.hpp"
#include "hls/checkpoint.hpp"
#include "layers.hpp"

namespace perfbench {

namespace hls = hlsmpc::hls;
namespace mpi = hlsmpc::mpi;
namespace topo = hlsmpc::topo;

namespace {

constexpr int kRanks = 4;
// Steps between checkpoints. After a checkpoint's write-back each rank's
// next write faults its page back in; at 256 those slowed steps, with the
// page-cache misses, stay well below the 10% that would reach step_us_p90.
constexpr int kSegment = 256;

constexpr std::size_t kWindow = 32;  // doubles written / read per rank per step

struct SpillSizes {
  std::size_t elems = 0;       ///< doubles in the array
  int iters = 0;               ///< kernel iterations per window element
  std::size_t page_bytes = 0;
  std::size_t pool_pages = 0;  ///< smaller than the array's page count
  std::size_t slice() const { return elems / kRanks; }
  std::size_t bytes() const { return elems * sizeof(double); }
};

struct SpillVars {
  hls::ArrayVar<double> field;
  hls::ScopeSet scope;
};

/// Build `node` with the array declared on the file tier, pool below its
/// size.
SpillVars make_node(const Args& a, const SpillSizes& sz,
                    const std::string& tier_dir,
                    std::unique_ptr<hlsmpc::mpc::Node>& node) {
  hlsmpc::mpc::NodeOptions o;
  o.mpi = node_mpi_options(kRanks, false, a.max_threads);
  o.tier.dir = tier_dir;
  o.tier.page_bytes = sz.page_bytes;
  o.tier.pool_pages = sz.pool_pages;
  o.tier.read_ahead_pages = 8;
  node = std::make_unique<hlsmpc::mpc::Node>(topo::Machine::generic(2, 2), o);
  hls::Runtime& rt = node->hls_rt();
  hls::ModuleBuilder mb(rt.registry(), "spill");
  SpillVars s;
  s.field = hls::add_array<double>(mb, "field", sz.elems, topo::node_scope());
  mb.commit();
  rt.storage().set_tier(s.field.handle().scope, hls::Tier::file_spill);
  s.scope = hls::ScopeSet(rt, {s.field.handle()});
  return s;
}

/// The set-up body on every rank: first touch, then the elected task
/// restores the newest checkpoint while the others wait in `single`.
void restore_node(hlsmpc::mpc::Node& node, const SpillVars& s,
                  hls::CheckpointStore& store, Tracer* tr) {
  node.run([&](mpi::Comm& w, hls::TaskView& v) {
    const int rank = w.rank(v.context());
    Span sp(tr, rank, SpanName::setup);
    {
      Span f(tr, rank, SpanName::hls_first_touch);
      v.get(s.field);
    }
    Span i(tr, rank, SpanName::hls_single_init);
    v.single(s.scope, [&] {
      Span r(tr, rank, SpanName::hls_ckpt_restore);
      v.runtime().restore(store, topo::node_scope());
    });
  });
}

std::vector<double> snapshot(hlsmpc::mpc::Node& node, const SpillVars& s) {
  const auto* p = static_cast<const double*>(
      node.hls_rt().storage().get_addr(s.field.handle(), 0));
  return std::vector<double>(p, p + s.field.size());
}

void spill_step(const SpillVars& s, const SpillSizes& sz,
                hls::CheckpointStore& store, std::uint64_t seed,
                hls::TaskView& v, Tracer* tr, int rank, std::int64_t step,
                std::uint64_t& sum) {
  double* f = nullptr;
  {
    Span g(tr, rank, SpanName::hls_get_addr);
    f = v.get(s.field);
  }
  // Write cursor of slice `s` at step `k`. Slice s runs s pages ahead, so
  // the ranks cross pages (and miss in the page cache) on different steps
  // instead of all at once, in a rhythm that could alias with the blocks.
  const auto windows = static_cast<std::int64_t>(sz.slice() / kWindow);
  const auto per_page =
      static_cast<std::int64_t>(sz.page_bytes / (kWindow * sizeof(double)));
  const auto cursor = [&](int s, std::int64_t k) {
    return static_cast<std::size_t>((k + s * per_page) % windows) * kWindow;
  };
  double acc = 0;
  if (step > 0) {
    // The window the neighbour wrote last step (published by the closing
    // barrier), through the storage path so the page cache prices the
    // access (hits, read-ahead, eviction). This step's writes go to the
    // next window, so they never overlap a neighbour's read.
    const int nbr = (rank + 1) % kRanks;
    const std::size_t off =
        static_cast<std::size_t>(nbr) * sz.slice() + cursor(nbr, step - 1);
    const hls::VarHandle& h = s.field.handle();
    const double* r = nullptr;
    {
      Span p(tr, rank, SpanName::hls_page_access);
      r = static_cast<const double*>(v.runtime().storage().get_addr(
          h.scope, h.module, h.offset + off * sizeof(double),
          kWindow * sizeof(double), v.cpu(), &v.context()));
    }
    Span k(tr, rank, SpanName::kernel);
    for (std::size_t j = 0; j < kWindow; ++j) acc += r[j];
  }
  {
    // The rank's state is its window of the array: seeded noise, then
    // `iters` logistic-map iterations on a private copy, written back.
    // Writes sweep the slice, so a segment dirties a contiguous run of
    // pages while compute, not I/O, dominates the step.
    Span k(tr, rank, SpanName::kernel);
    Rng rng(seed, static_cast<std::uint64_t>(rank) + 256,
            static_cast<std::uint64_t>(step));
    double* w =
        f + static_cast<std::size_t>(rank) * sz.slice() + cursor(rank, step);
    double x[kWindow], g[kWindow];
    for (std::size_t j = 0; j < kWindow; ++j) {
      x[j] = 0.5 * (w[j] + rng.unit());
      g[j] = 3.6 + 0.4 * rng.unit();
    }
    for (int it = 0; it < sz.iters; ++it) {
      for (std::size_t j = 0; j < kWindow; ++j) {
        x[j] = g[j] * x[j] * (1.0 - x[j]);
      }
    }
    for (std::size_t j = 0; j < kWindow; ++j) w[j] = x[j];
  }
  if ((step + 1) % kSegment != 0) {
    Span b(tr, rank, SpanName::hls_barrier);
    v.barrier(s.scope);
  } else {
    Span sg(tr, rank, SpanName::hls_single);
    v.single(s.scope, [&] {
      Span e(tr, rank, SpanName::hls_single_exec);
      hls::Runtime& rt = v.runtime();
      {
        Span fl(tr, rank, SpanName::hls_flush);
        rt.tier_flush(v.context());
      }
      Span c(tr, rank, SpanName::hls_ckpt_save);
      rt.checkpoint_incremental(store, topo::node_scope());
    });
  }
  sum = mix(sum, acc);
}

}  // namespace

Result run_ckpt_spill(const Args& a) {
  SpillSizes sz;
  sz.page_bytes = a.tiny ? 4 << 10 : 16 << 10;
  sz.elems = (a.tiny ? std::size_t{512} << 10 : std::size_t{4} << 20) /
             sizeof(double);
  sz.iters = a.tiny ? 256 : 65536;
  sz.pool_pages = sz.bytes() / sz.page_bytes / 2;
  Result r;
  r.info["array_bytes"] = std::to_string(sz.bytes());
  r.info["pool_bytes"] = std::to_string(sz.pool_pages * sz.page_bytes);
  const std::filesystem::path work = std::filesystem::path(a.work_dir) /
                                     ("ckpt_spill." + std::to_string(a.seed));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const std::string tier_dir = (work / "tier").string();
  r.info["tier_dir"] = tier_dir;

  // Set-ups restore the starting state from `seed_store`; the run saves
  // into `store`, which the final restore reads.
  // keep = 16: a full save every 17th checkpoint, deltas in between.
  hls::CheckpointStore seed_store({(work / "seed").string(), "pb", 16});
  hls::CheckpointStore store({(work / "ckpt").string(), "pb", 16});
  {
    // The state an earlier job left: seeded contents, saved in full.
    std::unique_ptr<hlsmpc::mpc::Node> node;
    const SpillVars s0 = make_node(a, sz, tier_dir, node);
    node->run([&](mpi::Comm&, hls::TaskView& v) {
      double* f = v.get(s0.field);
      v.single(s0.scope, [&] {
        Rng rng(a.seed, 512, 0);
        for (std::size_t i = 0; i < sz.elems; ++i) f[i] = rng.unit();
      });
    });
    node->hls_rt().checkpoint(seed_store, topo::node_scope());
  }

  Tracer tracer(kRanks);
  Tracer* tr = a.trace ? &tracer : nullptr;
  NodeArm arm;
  const auto set_up = [&](std::unique_ptr<hlsmpc::mpc::Node>& node,
                          Tracer* t) {
    const SpillVars v = make_node(a, sz, tier_dir, node);
    restore_node(*node, v, seed_store, t);
    return v;
  };
  Phase p;
  Clock::time_point t0 = Clock::now();
  const SpillVars vars = set_up(arm.node, tr);
  p.setup_s.push_back(seconds_since(t0));
  const LayerCounters setup_counts = read_counters(*arm.node);

  // Per-rank checksums of the neighbour reads (they keep the reads live).
  std::vector<std::uint64_t> sums(kRanks, 0);
  // Blocks hold whole segments, so every block ends on a checkpoint.
  const auto block = [&](Tracer* t, CategoryPeaks* peaks, ArmStats* timed,
                         std::int64_t first, int n) {
    arm.block(t, peaks, timed, first, n,
              [&](mpi::Comm&, hls::TaskView& v, int rank, std::int64_t step) {
                spill_step(vars, sz, store, a.seed, v, t, rank, step,
                           sums[static_cast<std::size_t>(rank)]);
              });
  };
  const int warmup = 2 * kSegment;
  t0 = Clock::now();
  block(nullptr, nullptr, nullptr, 0, warmup);
  int n = block_steps(a, seconds_since(t0) / warmup, kSegment);
  n = (n + kSegment - 1) / kSegment * kSegment;
  r.info["block_steps"] = std::to_string(n);
  p.step = warmup;
  timed_phase(a, tr, n, p, block, [&] { return read_counters(*arm.node); },
              [&] {
                return time_setup([&] {
                  std::unique_ptr<hlsmpc::mpc::Node> node;
                  set_up(node, nullptr);
                  return node;
                });
              });

  // A fresh node restores the newest checkpoint: it must hold the live
  // array bit for bit.
  std::vector<double> expect = snapshot(*arm.node, vars);
  if (a.corrupt_expected) expect[0] = -expect[0];
  std::unique_ptr<hlsmpc::mpc::Node> fresh;
  const SpillVars fv = make_node(a, sz, tier_dir, fresh);
  restore_node(*fresh, fv, store, nullptr);
  const std::vector<double> got = snapshot(*fresh, fv);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    differ += std::memcmp(&got[i], &expect[i], sizeof(double)) != 0 ? 1 : 0;
  }
  r.check("restore_bit_identical", differ == 0,
          std::to_string(differ) + " of " + std::to_string(got.size()) +
              " doubles differ after " + std::to_string(p.step) + " steps");
  fresh.reset();

  if (!a.trace) {
    report_setup(r, p.setup_s);
    report_steps(r, p.untraced);
    r.set("node_peak_mb", mb(arm.node->tracker().peak_total()), "MB");
    r.not_applicable = {"hls_speedup", "parallel_eff", "mem_saved_mb"};
  } else {
    report_layer_counts(r, p.counts, setup_counts);
    report_category_peaks(r, p.peaks);
    r.set("ult.run_enter_s", arm.run_enter_s, "s");
    // Kernel per rank per step: the own window (3 flops per iteration plus
    // 3 to seed it; read + write) and the neighbour window (1 flop, read).
    const auto steps = static_cast<double>(p.traced.steps);
    r.set("kernel.flops", steps * kRanks * kWindow * (3.0 * sz.iters + 4),
          "count");
    r.set("kernel.bytes_computed", steps * kRanks * 24.0 * kWindow, "B");
    report_trace(r, tracer, a, p.untraced.steps_per_s(),
                 p.traced.steps_per_s());
  }
  arm.node.reset();
  std::filesystem::remove_all(work);
  return r;
}

}  // namespace perfbench
