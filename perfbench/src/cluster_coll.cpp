// cluster_coll: multi-node collectives on a SimCluster, no HLS. Each step
// does a cross-node ring halo over the simulated fabric, one allreduce
// above the pipelined-collective threshold, one small allgather and a
// cluster barrier. Integer sums are exact in any grouping, so every
// result is checked bit for bit against a serial fold.
#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
using hlsmpc::ult::TaskContext;

namespace {

constexpr int kNodes = 8;
constexpr int kRanksPerNode = 2;
constexpr int kRanks = kNodes * kRanksPerNode;
constexpr std::size_t kReduceElems = 40960;  // 320 KiB of uint64
constexpr std::size_t kHaloElems = 512;      // 4 KiB
constexpr std::size_t kGatherElems = 8;      // 64 B per rank
constexpr int kHaloTag = 11;

std::uint64_t halo_word(std::uint64_t seed, int src, std::int64_t step,
                        std::size_t i) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(src) << 40 ^
                                      static_cast<std::uint64_t>(step) << 12 ^
                                      i));
}

struct RankBufs {
  std::vector<std::uint64_t> base, send, recv, halo_out, halo_in, ag_out,
      ag_in;
};

struct Cluster {
  std::unique_ptr<obs::Recorder> rec;
  std::unique_ptr<mpi::SimCluster> cl;
  std::vector<RankBufs> bufs;
  RunEnter enter;
  double run_enter_s = 0;
};

/// Build the cluster and run its set-up: every rank fills its seeded
/// contribution and its buffers.
std::unique_ptr<Cluster> make_cluster(const Args& a, Tracer* tr) {
  auto c = std::make_unique<Cluster>();
  c->rec =
      std::make_unique<obs::Recorder>(obs::RecorderOptions{.ntasks = kRanks});
  mpi::ClusterOptions o;
  o.nnodes = kNodes;
  o.ranks_per_node = kRanksPerNode;
  o.executor = mpi::ExecutorKind::fiber;
  o.fiber_workers = a.max_threads;
  o.obs = c->rec.get();
  c->cl = std::make_unique<mpi::SimCluster>(o);
  c->bufs.resize(kRanks);
  c->cl->run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    Span s(tr, g, SpanName::setup);
    Span k(tr, g, SpanName::kernel);
    RankBufs& b = c->bufs[static_cast<std::size_t>(g)];
    Rng rng(a.seed, static_cast<std::uint64_t>(g) + 128, 0);
    b.base.resize(kReduceElems);
    for (auto& x : b.base) x = rng.next();
    b.send.assign(kReduceElems, 0);
    b.recv.assign(kReduceElems, 0);
    b.halo_out.assign(kHaloElems, 0);
    b.halo_in.assign(kHaloElems, 0);
    b.ag_out.assign(kGatherElems, 0);
    b.ag_in.assign(kGatherElems * kRanks, 0);
  });
  return c;
}

/// Serial fold of every rank's contribution in ascending rank order.
std::vector<std::uint64_t> serial_base_sum(const Cluster& c) {
  std::vector<std::uint64_t> s = c.bufs[0].base;
  for (int g = 1; g < kRanks; ++g) {
    const auto& b = c.bufs[static_cast<std::size_t>(g)].base;
    for (std::size_t i = 0; i < kReduceElems; ++i) s[i] += b[i];
  }
  return s;
}

struct Expected {
  std::vector<std::uint64_t> base_sum;  ///< step-independent part
  std::uint64_t seed = 0;
};

/// One step on rank g; returns the number of words that differ from the
/// serial result.
std::uint64_t cluster_step(Cluster& c, const Expected& e,
                           mpi::ClusterComm& comm, TaskContext& ctx,
                           Tracer* tr, int g, std::int64_t step) {
  RankBufs& b = c.bufs[static_cast<std::size_t>(g)];
  const auto k = static_cast<std::uint64_t>(step);
  {
    Span s(tr, g, SpanName::kernel);
    for (std::size_t i = 0; i < kReduceElems; ++i) {
      b.send[i] = b.base[i] + k * static_cast<std::uint64_t>(g + 1);
    }
    for (std::size_t i = 0; i < kHaloElems; ++i) {
      b.halo_out[i] = halo_word(e.seed, g, step, i);
    }
    for (std::size_t i = 0; i < kGatherElems; ++i) {
      b.ag_out[i] = halo_word(e.seed, g + kRanks, step, i);
    }
  }
  const int n = comm.size();
  {
    Span s(tr, g, SpanName::net_p2p);
    comm.send(ctx, b.halo_out.data(), kHaloElems * 8, (g + 1) % n, kHaloTag);
    comm.recv(ctx, b.halo_in.data(), kHaloElems * 8, (g + n - 1) % n,
              kHaloTag);
  }
  {
    Span s(tr, g, SpanName::mpi_allreduce);
    comm.allreduce(ctx, b.send.data(), b.recv.data(), kReduceElems, 8,
                   mpi::make_reduce_fn<std::uint64_t>(mpi::Op::sum));
  }
  {
    Span s(tr, g, SpanName::mpi_allgather);
    comm.allgather(ctx, b.ag_out.data(), kGatherElems * 8, b.ag_in.data());
  }
  std::uint64_t bad = 0;
  {
    Span s(tr, g, SpanName::check);
    // sum over ranks of (base + k*(rank+1)) = base_sum + k * n(n+1)/2
    const std::uint64_t ramp = k * static_cast<std::uint64_t>(n * (n + 1) / 2);
    for (std::size_t i = 0; i < kReduceElems; ++i) {
      bad += b.recv[i] != e.base_sum[i] + ramp ? 1 : 0;
    }
    const int left = (g + n - 1) % n;
    for (std::size_t i = 0; i < kHaloElems; ++i) {
      bad += b.halo_in[i] != halo_word(e.seed, left, step, i) ? 1 : 0;
    }
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < kGatherElems; ++i) {
        bad += b.ag_in[static_cast<std::size_t>(r) * kGatherElems + i] !=
                       halo_word(e.seed, r + kRanks, step, i)
                   ? 1
                   : 0;
      }
    }
  }
  {
    Span s(tr, g, SpanName::mpi_barrier);
    comm.barrier(ctx);
  }
  return bad;
}

/// Run one block; returns the mismatched words over all ranks.
std::uint64_t cluster_block(Cluster& c, const Expected& e, Tracer* tr,
                            CategoryPeaks* peaks, ArmStats* timed,
                            std::int64_t first, int n) {
  BlockCtx b;
  b.tr = tr;
  b.arm = timed;
  b.tracker = &c.cl->node_runtime(0).tracker();
  b.peaks = tr != nullptr ? peaks : nullptr;
  b.enter = tr != nullptr ? &c.enter : nullptr;
  c.enter.reset();
  std::vector<std::uint64_t> bad(kRanks, 0);
  const Clock::time_point call = Clock::now();
  c.cl->run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    step_loop(b, g, first, n, [&](std::int64_t s) {
      bad[static_cast<std::size_t>(g)] +=
          cluster_step(c, e, comm, ctx, tr, g, s);
    });
  });
  if (tr != nullptr) c.run_enter_s += c.enter.finish(call, Clock::now());
  std::uint64_t total = 0;
  for (std::uint64_t x : bad) total += x;
  return total;
}

std::size_t largest_node_peak(mpi::SimCluster& cl) {
  std::size_t peak = 0;
  for (int n = 0; n < cl.nnodes(); ++n) {
    peak = std::max(peak, cl.node_runtime(n).tracker().peak_total());
  }
  return peak;
}

}  // namespace

Result run_cluster_coll(const Args& a) {
  Result r;
  r.info["allreduce_bytes"] = std::to_string(kReduceElems * 8);
  r.info["nodes_x_ranks"] =
      std::to_string(kNodes) + "x" + std::to_string(kRanksPerNode);
  Tracer tracer(kRanks);
  Tracer* tr = a.trace ? &tracer : nullptr;

  Phase p;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Cluster> c = make_cluster(a, tr);
  p.setup_s.push_back(seconds_since(t0));
  const LayerCounters setup_counts = read_counters(*c->cl, *c->rec);
  Expected e;
  e.seed = a.seed;
  e.base_sum = serial_base_sum(*c);
  if (a.corrupt_expected) e.base_sum[0] ^= 1;

  std::uint64_t bad = 0;
  const auto block = [&](Tracer* t, CategoryPeaks* peaks, ArmStats* timed,
                         std::int64_t first, int n) {
    bad += cluster_block(*c, e, t, peaks, timed, first, n);
  };
  const int warmup = a.tiny ? 10 : 50;
  t0 = Clock::now();
  block(nullptr, nullptr, nullptr, 0, warmup);
  const int n = block_steps(a, seconds_since(t0) / warmup, 10);
  r.info["block_steps"] = std::to_string(n);
  p.step = warmup;
  timed_phase(
      a, tr, n, p, block, [&] { return read_counters(*c->cl, *c->rec); },
      [&] { return time_setup([&] { return make_cluster(a, nullptr); }); });

  r.check("allreduce_halo_allgather_equal_serial", bad == 0,
          std::to_string(bad) + " mismatched words over " +
              std::to_string(p.step) + " steps");
  if (!a.trace) {
    report_setup(r, p.setup_s);
    report_steps(r, p.untraced);
    r.set("node_peak_mb", mb(largest_node_peak(*c->cl)), "MB");
    r.not_applicable = {"hls_speedup", "parallel_eff", "mem_saved_mb"};
    return r;
  }
  report_layer_counts(r, p.counts, setup_counts);
  report_category_peaks(r, p.peaks);
  r.set("ult.run_enter_s", c->run_enter_s, "s");
  // Kernel: one add and one multiply per reduce element, stores of the
  // send, halo and gather buffers.
  const auto steps = static_cast<double>(p.traced.steps);
  r.set("kernel.flops", steps * kRanks * 2.0 * kReduceElems, "count");
  r.set("kernel.bytes_computed",
        steps * kRanks * 8.0 * (2 * kReduceElems + kHaloElems + kGatherElems),
        "B");
  report_trace(r, tracer, a, p.untraced.steps_per_s(), p.traced.steps_per_s());
  return r;
}

}  // namespace perfbench
