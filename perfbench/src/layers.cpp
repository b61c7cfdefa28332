#include "layers.hpp"

#include "hls/pagecache.hpp"

namespace perfbench {

using hlsmpc::obs::Counter;

namespace {

void read_obs(LayerCounters& c, const hlsmpc::obs::Recorder* rec) {
  if (rec == nullptr) return;
  const hlsmpc::obs::Snapshot s = rec->snapshot();
  c.obs = s.total.c;
  for (std::uint64_t b : s.total.scope_bytes) c.at(Stat::scope_bytes) += b;
}

void add_transport(LayerCounters& c, hlsmpc::mpi::TransportStats& t) {
  c.at(Stat::msgs) += t.messages.load();
  c.at(Stat::bytes) += t.bytes.load();
  c.at(Stat::eager) += t.eager_sends.load();
  c.at(Stat::rendezvous) += t.rendezvous_sends.load();
  c.at(Stat::shm_coll) += t.shm_collectives.load();
  c.at(Stat::shm_pipelined) += t.shm_pipelined_collectives.load();
  c.at(Stat::shm_copied) += t.shm_copied_bytes.load();
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i] += o.obs[i];
  for (std::size_t i = 0; i < stat.size(); ++i) stat[i] += o.stat[i];
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  for (std::size_t i = 0; i < obs.size(); ++i) d.obs[i] = obs[i] - o.obs[i];
  for (std::size_t i = 0; i < stat.size(); ++i) d.stat[i] = stat[i] - o.stat[i];
  return d;
}

LayerCounters read_counters(hlsmpc::mpc::Node& n) {
  LayerCounters c;
  read_obs(c, n.obs());
  add_transport(c, n.mpi_rt().stats());
  if (const auto* pc = n.hls_rt().storage().page_cache(); pc != nullptr) {
    const auto s = pc->stats();
    c.at(Stat::pc_hits) = s.hits;
    c.at(Stat::pc_misses) = s.misses;
    c.at(Stat::pc_preread) = s.preread_bytes;
    c.at(Stat::pc_writeback) = s.writeback_bytes;
    c.at(Stat::pc_evictions) = s.evictions;
  }
  return c;
}

LayerCounters read_counters(hlsmpc::mpi::SimCluster& cl,
                            const hlsmpc::obs::Recorder& rec) {
  LayerCounters c;
  read_obs(c, &rec);
  for (int n = 0; n < cl.nnodes(); ++n) {
    add_transport(c, cl.node_runtime(n).stats());
  }
  auto& f = cl.fabric().stats();
  c.at(Stat::net_msgs) = f.messages.load();
  c.at(Stat::net_bytes) = f.bytes.load();
  c.at(Stat::net_retries) = f.retries.load();
  return c;
}

void report_layer_counts(Result& r, const LayerCounters& d,
                         const LayerCounters& setup) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  r.set("hls.storage.first_touch_bytes", f(setup.get(Stat::scope_bytes)), "B");
  r.set("hls.get_addr.calls",
        f(d.get(Counter::get_addr_warm) + d.get(Counter::get_addr_cold)),
        "count");
  r.set("hls.sync.single_calls",
        f(d.get(Counter::single_wins) + d.get(Counter::single_losses)),
        "count");
  r.set("hls.sync.barrier_calls", f(d.get(Counter::barrier_entries)), "count");
  r.set("ult.ctx_switches", f(d.get(Counter::ctx_switches)), "count");
  const std::uint64_t msgs = d.get(Stat::msgs);
  r.set("mpi.p2p.msgs", f(msgs), "count");
  r.set("mpi.p2p.bytes", f(d.get(Stat::bytes)), "B");
  r.set("mpi.p2p.eager", f(d.get(Stat::eager)), "count");
  r.set("mpi.p2p.rendezvous", f(d.get(Stat::rendezvous)), "count");
  r.set("mpi.p2p.direct",
        f(msgs - d.get(Stat::eager) - d.get(Stat::rendezvous)), "count");
  const std::uint64_t calls = d.get(Counter::coll_ops);
  r.set("mpi.coll.calls", f(calls), "count");
  // Shared-memory engine entries per collective call: a fraction on one
  // node; on a cluster every call also enters the node tier several times.
  r.set("mpi.coll.shm_frac",
        calls > 0 ? f(d.get(Stat::shm_coll)) / f(calls) : 0, "ratio");
  r.set("mpi.coll.pipelined_frac",
        calls > 0 ? f(d.get(Stat::shm_pipelined)) / f(calls) : 0, "ratio");
  r.set("mpi.coll.shm_copied_bytes", f(d.get(Stat::shm_copied)), "B");
  r.set("mpi.cluster.net_msgs", f(d.get(Stat::net_msgs)), "count");
  r.set("mpi.cluster.net_bytes", f(d.get(Stat::net_bytes)), "B");
  r.set("mpi.cluster.retries", f(d.get(Stat::net_retries)), "count");
  const std::uint64_t touches = d.get(Stat::pc_hits) + d.get(Stat::pc_misses);
  r.set("hls.pagecache.hit_ratio",
        touches > 0 ? f(d.get(Stat::pc_hits)) / f(touches) : 0, "ratio");
  r.set("hls.pagecache.preread_bytes", f(d.get(Stat::pc_preread)), "B");
  r.set("hls.pagecache.writeback_bytes", f(d.get(Stat::pc_writeback)), "B");
  r.set("hls.pagecache.evictions", f(d.get(Stat::pc_evictions)), "count");
  r.set("hls.checkpoint.bytes", f(d.get(Counter::ckpt_bytes)), "B");
}

void NodeArm::block(Tracer* tr, CategoryPeaks* peaks, ArmStats* timed,
                    std::int64_t first, int n, const StepFn& step) {
  BlockCtx b;
  b.tr = tr;
  b.arm = timed;
  b.tracker = &node->tracker();
  b.peaks = tr != nullptr ? peaks : nullptr;
  b.enter = tr != nullptr ? &enter : nullptr;
  enter.reset();
  const Clock::time_point call = Clock::now();
  node->run([&](hlsmpc::mpi::Comm& world, hlsmpc::hls::TaskView& view) {
    const int rank = world.rank(view.context());
    step_loop(b, rank, first, n,
              [&](std::int64_t s) { step(world, view, rank, s); });
  });
  if (tr != nullptr) run_enter_s += enter.finish(call, Clock::now());
}

void timed_phase(const Args& a, Tracer* tr, int n, Phase& p,
                 const BlockFn& block,
                 const std::function<LayerCounters()>& read,
                 const std::function<double()>& set_up,
                 const std::function<void(std::int64_t)>& between) {
  // Bounds the span file (~130 bytes a span) and the tracer's memory;
  // past it a traced run goes on with untraced blocks only.
  constexpr std::size_t kSpanCap = 250000;
  const Clock::time_point start = Clock::now();
  while (keep_running(a, start, p.untraced.steps)) {
    block(nullptr, nullptr, &p.untraced, p.step, n);
    if (tr == nullptr) {
      if (between) between(p.step);
      p.setup_s.push_back(set_up());
    } else if (tr->size() < kSpanCap) {
      p.step += n;
      const LayerCounters before = read();
      block(tr, &p.peaks, &p.traced, p.step, n);
      p.counts += read() - before;
    }
    p.step += n;
  }
}

hlsmpc::mpi::Options node_mpi_options(int ranks, bool fibers,
                                      int max_threads) {
  hlsmpc::mpi::Options o;
  o.nranks = ranks;
  if (fibers || ranks > max_threads) {
    o.executor = hlsmpc::mpi::ExecutorKind::fiber;
    o.fiber_workers = std::min(ranks, max_threads);
  }
  return o;
}

}  // namespace perfbench
