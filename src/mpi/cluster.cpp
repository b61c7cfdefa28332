#include "mpi/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "fault/injector.hpp"
#include "mpi/coll_algo.hpp"
#include "obs/recorder.hpp"

#include "mpi/recover.hpp"

namespace hlsmpc::mpi {

namespace {

/// Fabric context ids: user p2p and collective internals must not match
/// each other's messages.
constexpr int kP2pContext = 0;
constexpr int kCollContext = 1;

}  // namespace

// ---------------------------------------------------------------------------
// SimCluster

SimCluster::SimCluster(ClusterOptions opts)
    : opts_(opts), machine_(topo::Machine::nehalem_ex(2)) {
  if (opts_.nnodes <= 0 || opts_.ranks_per_node <= 0) {
    throw MpiError("SimCluster: nnodes and ranks_per_node must be positive");
  }
  SimFabricTransport::Options fo;
  fo.nranks = nranks();
  fo.ranks_per_node = opts_.ranks_per_node;
  fo.limits = opts_.fabric_limits;
  fo.retry = opts_.fabric_retry;
  fo.obs = opts_.obs;
  fabric_ = std::make_unique<SimFabricTransport>(fo);

  nodes_.reserve(static_cast<std::size_t>(opts_.nnodes));
  for (int n = 0; n < opts_.nnodes; ++n) {
    Options o;
    o.nranks = opts_.ranks_per_node;
    o.buffers = opts_.buffers;
    // The per-pair eager reservation model sizes buffers for the whole
    // job, exactly what total_ranks is for.
    o.total_ranks = nranks();
    o.coll = opts_.coll;
    // Node runtimes never record: their local task ids would collide
    // across nodes. Cluster-level recording uses global ids (obs()).
    o.obs = nullptr;
    nodes_.push_back(std::make_unique<Runtime>(machine_, o));
  }

  switch (opts_.executor) {
    case ExecutorKind::thread:
      executor_ = std::make_unique<ult::ThreadExecutor>();
      break;
    case ExecutorKind::fiber: {
      int workers = opts_.fiber_workers;
      if (workers <= 0) {
        const int hw =
            static_cast<int>(std::thread::hardware_concurrency());
        workers = std::min(machine_.num_cpus(), std::max(hw, 1));
      }
      auto fe = std::make_unique<ult::FiberExecutor>(workers);
#if HLSMPC_OBS_ENABLED
      fe->set_obs(opts_.obs);
#endif
      executor_ = std::move(fe);
      break;
    }
  }
  comm_ = std::make_unique<ClusterComm>(*this);
}

SimCluster::~SimCluster() = default;

Runtime& SimCluster::node_runtime(int node) {
  if (node < 0 || node >= opts_.nnodes) {
    throw MpiError("node_runtime: bad node " + std::to_string(node));
  }
  return *nodes_[static_cast<std::size_t>(node)];
}

void SimCluster::respawn(int node) {
  if (node < 0 || node >= opts_.nnodes) {
    throw MpiError("respawn: bad node " + std::to_string(node));
  }
  if (!fabric_->node_dead(node)) {
    throw MpiError("respawn: node " + std::to_string(node) +
                   " is not dead");
  }
  if (fault::should_fail("cluster:respawn", node)) {
    throw MpiError("respawn: injected launch failure for node " +
                   std::to_string(node));
  }
  // A replacement process: brand-new runtime, empty storage — warm
  // restarts rehydrate it from a checkpoint inside the next run().
  Options o;
  o.nranks = opts_.ranks_per_node;
  o.buffers = opts_.buffers;
  o.total_ranks = nranks();
  o.coll = opts_.coll;
  o.obs = nullptr;
  nodes_[static_cast<std::size_t>(node)] =
      std::make_unique<Runtime>(machine_, o);
  fabric_->revive_node(node);
  comm_->readmit(node);
}

void SimCluster::run(const Body& body) { run_on(*executor_, body); }

void SimCluster::run_on(ult::Executor& exec, const Body& body) {
  const int n = nranks();
  std::vector<int> pins(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    pins[static_cast<std::size_t>(g)] =
        nodes_[static_cast<std::size_t>(g / opts_.ranks_per_node)]
            ->cpu_of_rank(g % opts_.ranks_per_node);
  }
  exec.run(n, pins, [&](ult::TaskContext& ctx) { body(*comm_, ctx); });
}

// ---------------------------------------------------------------------------
// ClusterComm

ClusterComm::ClusterComm(SimCluster& cluster)
    : cluster_(&cluster),
      fabric_(&cluster.fabric()),
      nnodes_(cluster.nnodes()),
      rpn_(cluster.ranks_per_node()),
      nranks_(cluster.nranks()),
      coll_seq_(static_cast<std::size_t>(cluster.nranks()), 0),
      shrink_round_timeout_(cluster.options().shrink_round_timeout) {
  node_world_.reserve(static_cast<std::size_t>(nnodes_));
  for (int n = 0; n < nnodes_; ++n) {
    node_world_.push_back(&cluster.node_runtime(n).world());
  }
  auto v = std::make_shared<View>();
  v->live.resize(static_cast<std::size_t>(nnodes_));
  std::iota(v->live.begin(), v->live.end(), 0);
  view_ = std::move(v);
  gate_ = std::make_unique<GateSlot[]>(static_cast<std::size_t>(nnodes_));
#if HLSMPC_OBS_ENABLED
  obs_ = cluster.obs();
#endif
}

Comm& ClusterComm::node_comm(int node) const {
  if (node < 0 || node >= nnodes_) {
    throw MpiError("node_comm: bad node " + std::to_string(node));
  }
  return *node_world_[static_cast<std::size_t>(node)];
}

int ClusterComm::pos_of(const View& v, int node) {
  const auto it = std::lower_bound(v.live.begin(), v.live.end(), node);
  if (it == v.live.end() || *it != node) return -1;
  return static_cast<int>(it - v.live.begin());
}

int ClusterComm::next_coll_tag(int grank, std::uint64_t epoch) {
  // Per-rank counters agree because all ranks enter collectives on this
  // comm in the same order (MPI requirement). The epoch in the high bits
  // keeps any straggler of a pre-shrink collective from matching a
  // post-shrink one; low-bits wraparound is harmless, a tag only
  // disambiguates calls close in time.
  const std::uint32_t seq = coll_seq_[static_cast<std::size_t>(grank)]++;
  return static_cast<int>(((static_cast<std::uint32_t>(epoch) & 0x7fu)
                           << 24) |
                          (seq & 0xffffffu));
}

void ClusterComm::node_gate(ult::TaskContext& lctx, Comm& nc, int node,
                            const char* what) {
  // Fused verdict: between two local barriers, the node's local rank 0
  // publishes the fabric's poison state and EVERY rank of the node acts
  // on that one value — so co-resident ranks all throw or all proceed,
  // and a throwing node is never stranded mid-local-phase. (The next
  // gate's opening barrier orders any later verdict write after every
  // read of this one, so one slot per node suffices.)
  nc.barrier(lctx);
  std::atomic<int>& v = gate_[static_cast<std::size_t>(node)].verdict;
  if (lctx.task_id() == 0) {
    v.store(fabric_->poisoned_node(), std::memory_order_release);
  }
  nc.barrier(lctx);
  const int dead = v.load(std::memory_order_acquire);
  if (dead >= 0) {
    throw NodeDeadError(dead, std::string(what) + ": node " +
                                  std::to_string(dead) + " unreachable");
  }
}

void ClusterComm::count_coll(int grank) {
#if HLSMPC_OBS_ENABLED
  if (obs_ != nullptr) obs_->count(grank, obs::Counter::coll_ops);
#else
  (void)grank;
#endif
}

// ---- global p2p ----

void ClusterComm::send(ult::TaskContext& ctx, const void* buf,
                       std::size_t bytes, int dst, int tag) {
  if (dst < 0 || dst >= nranks_) {
    throw MpiError("cluster send: bad rank " + std::to_string(dst));
  }
  if (tag < 0 || tag > kMaxUserTag) {
    throw MpiError("cluster send: bad tag " + std::to_string(tag));
  }
  const int me = rank(ctx);
  Request r = fabric_->isend(ctx, me, dst, dst, buf, bytes, tag, kP2pContext);
  transport_wait(ctx, r);
#if HLSMPC_OBS_ENABLED
  if (obs_ != nullptr) obs_->count(me, obs::Counter::net_sends);
#endif
}

void ClusterComm::recv(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                       int src, int tag, Status* status) {
  if (src != kAnySource && (src < 0 || src >= nranks_)) {
    throw MpiError("cluster recv: bad rank " + std::to_string(src));
  }
  if (tag != kAnyTag && (tag < 0 || tag > kMaxUserTag)) {
    throw MpiError("cluster recv: bad tag " + std::to_string(tag));
  }
  const int me = rank(ctx);
  Request r = fabric_->irecv(ctx, me, buf, capacity, src, tag, kP2pContext);
  transport_wait(ctx, r, status);
#if HLSMPC_OBS_ENABLED
  if (obs_ != nullptr) obs_->count(me, obs::Counter::net_recvs);
#endif
}

// ---- leader-tier primitives ----

bool ClusterComm::coll_send(ult::TaskContext& ctx, int g_me, int dst_g,
                            const void* buf, std::size_t bytes, int tag) {
  try {
    Request r =
        fabric_->isend(ctx, g_me, dst_g, dst_g, buf, bytes, tag, kCollContext);
    transport_wait(ctx, r);
  } catch (const NodeDeadError& e) {
    // Re-arm the episode poison when the failure names a node that died
    // in an EARLIER, already-healed episode (kill_node re-poisons then;
    // it is a no-op while the naming episode is still open) — the gates
    // must see a verdict, or co-resident ranks would sail past.
    fabric_->kill_node(e.node());
    return false;
  } catch (const TransportError&) {
    // The link failed but the peer was not (yet) known dead: declare the
    // node we could not reach unreachable, so supervision names it
    // (dead-rank supervision lifted to nodes).
    fabric_->kill_node(node_of(dst_g));
    return false;
  }
#if HLSMPC_OBS_ENABLED
  if (obs_ != nullptr) obs_->count(g_me, obs::Counter::net_sends);
#endif
  return true;
}

bool ClusterComm::coll_recv(ult::TaskContext& ctx, int g_me, int src_g,
                            void* buf, std::size_t capacity, int tag) {
  try {
    Request r = fabric_->irecv(ctx, g_me, buf, capacity, src_g, tag,
                               kCollContext);
    transport_wait(ctx, r);
  } catch (const NodeDeadError& e) {
    fabric_->kill_node(e.node());
    return false;
  } catch (const TransportError&) {
    fabric_->kill_node(node_of(src_g));
    return false;
  }
#if HLSMPC_OBS_ENABLED
  if (obs_ != nullptr) obs_->count(g_me, obs::Counter::net_recvs);
#endif
  return true;
}

ClusterComm::CollCall ClusterComm::enter(ult::TaskContext& ctx,
                                         const char* what,
                                         std::optional<int> root) {
  if (root && (*root < 0 || *root >= nranks_)) {
    throw MpiError(std::string(what) + ": bad root " + std::to_string(*root));
  }
  const int g = rank(ctx);
  const int node = node_of(g);
  count_coll(g);
  auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  const int pos = pos_of(*view, node);
  if (pos < 0) {
    throw NodeDeadError(node, std::string(what) + ": node " +
                                  std::to_string(node) +
                                  " was excluded by shrink");
  }
  int root_pos = -1;
  if (root) {
    const int root_node = node_of(*root);
    root_pos = pos_of(*view, root_node);
    if (root_pos < 0) {
      throw NodeDeadError(root_node, std::string(what) + ": root node " +
                                         std::to_string(root_node) +
                                         " was excluded by shrink");
    }
  }
  const int npos = static_cast<int>(view->live.size());
  CollCall c{ctx, LocalCtx(ctx, local_of(g)), node_comm(node),
             std::move(view), what, g, node, local_of(g), pos, npos,
             root_pos, tag};
  node_gate(c.lctx, c.nc, node, what);
  return c;
}

void ClusterComm::leave(CollCall& c) {
  node_gate(c.lctx, c.nc, c.node, c.what);
}

bool ClusterComm::to_leader(const CollCall& c, int p, const void* buf,
                            std::size_t bytes) {
  return coll_send(c.ctx, c.g,
                   leader_of(c.view->live[static_cast<std::size_t>(p)]), buf,
                   bytes, c.tag);
}

bool ClusterComm::from_leader(const CollCall& c, int p, void* buf,
                              std::size_t bytes) {
  return coll_recv(c.ctx, c.g,
                   leader_of(c.view->live[static_cast<std::size_t>(p)]), buf,
                   bytes, c.tag);
}

// ---- hierarchical collectives ----
//
// The leader tier runs the coll_algo.hpp schedules over live positions;
// ascending position is ascending node id, so the ordered fold lands the
// exact ascending-global-rank fold at live[0]'s leader. A failed leader
// exchange is contained (coll_send/coll_recv declare the peer node dead
// and the schedule pushes on), and the closing gate turns it into one
// NodeDeadError on every rank of the node.

void ClusterComm::barrier(ult::TaskContext& ctx) {
  CollCall c = enter(ctx, "cluster barrier", std::nullopt);
  // The gates themselves provide local arrival and release, so the
  // barrier body is just the leader dissemination.
  if (c.local == 0) {
    coll::dissemination(c.pos, c.npos, [&](int dst, int src) {
      const bool sent = to_leader(c, dst, nullptr, 0);
      return from_leader(c, src, nullptr, 0) && sent;
    });
  }
  leave(c);
}

void ClusterComm::bcast(ult::TaskContext& ctx, void* buf, std::size_t bytes,
                        int root) {
  CollCall c = enter(ctx, "cluster bcast", root);
  // Root's node first shares locally (this is what puts the payload in
  // the leader's hands), then its leader feeds the leader tier; the other
  // nodes share what their leader received.
  const bool root_node = c.node == node_of(root);
  if (root_node) c.nc.bcast(c.lctx, buf, bytes, local_of(root));
  if (c.local == 0) {
    coll::binomial_bcast(
        c.pos, c.npos, c.root_pos,
        [&](int p) { return to_leader(c, p, buf, bytes); },
        [&](int p) { return from_leader(c, p, buf, bytes); });
  }
  if (!root_node) c.nc.bcast(c.lctx, buf, bytes, 0);
  leave(c);
}

void ClusterComm::reduce(ult::TaskContext& ctx, const void* sendbuf,
                         void* recvbuf, std::size_t count,
                         std::size_t elem_bytes, const ReduceFn& fn,
                         int root) {
  CollCall c = enter(ctx, "cluster reduce", root);
  const std::size_t bytes = count * elem_bytes;
  // Local tier: fold the node's contributions (ascending local = ascending
  // global within the node) into the leader's partial.
  std::vector<std::byte> partial;
  if (c.local == 0) partial.resize(bytes);
  c.nc.reduce(c.lctx, sendbuf, c.local == 0 ? partial.data() : nullptr,
              count, elem_bytes, fn, 0);

  const int root_leader = leader_of(c.view->live[0]);
  if (c.local == 0) {
    {
      std::vector<std::byte> incoming(bytes);  // scoped: see allreduce
      coll::ordered_fold(
          c.pos, c.npos, partial.data(), incoming.data(), count, fn,
          [&](int p) { return to_leader(c, p, partial.data(), bytes); },
          [&](int p) { return from_leader(c, p, incoming.data(), bytes); });
    }
    if (c.pos == 0) {
      // Deliver the folded total to the global root.
      if (c.g == root) {
        if (bytes > 0) std::memcpy(recvbuf, partial.data(), bytes);
      } else {
        coll_send(ctx, c.g, root, partial.data(), bytes, c.tag);
      }
    }
  }
  if (c.g == root && c.g != root_leader) {
    coll_recv(ctx, c.g, root_leader, recvbuf, bytes, c.tag);
  }
  leave(c);
}

void ClusterComm::allreduce(ult::TaskContext& ctx, const void* sendbuf,
                            void* recvbuf, std::size_t count,
                            std::size_t elem_bytes, const ReduceFn& fn) {
  CollCall c = enter(ctx, "cluster allreduce", std::nullopt);
  const std::size_t bytes = count * elem_bytes;
  // Local reduce into the leader's recvbuf, leader fold to live[0],
  // leader bcast of the total, local bcast — reduce+bcast with the
  // leader's recvbuf as the accumulator throughout, so no extra staging
  // buffer.
  c.nc.reduce(c.lctx, sendbuf, c.local == 0 ? recvbuf : nullptr, count,
              elem_bytes, fn, 0);
  if (c.local == 0) {
    {
      // Scoped to the fold, so it is freed before the bcast allocates
      // the fabric's wire copies. Kept alive through the bcast, a
      // 320 KiB allreduce over 8x2 ranks took ~25% longer per step on
      // a 4-vCPU x86-64 host (perfbench cluster_coll).
      std::vector<std::byte> incoming(bytes);
      coll::ordered_fold(
          c.pos, c.npos, recvbuf, incoming.data(), count, fn,
          [&](int p) { return to_leader(c, p, recvbuf, bytes); },
          [&](int p) { return from_leader(c, p, incoming.data(), bytes); });
    }
    coll::binomial_bcast(
        c.pos, c.npos, 0,
        [&](int p) { return to_leader(c, p, recvbuf, bytes); },
        [&](int p) { return from_leader(c, p, recvbuf, bytes); });
  }
  c.nc.bcast(c.lctx, recvbuf, bytes, 0);
  leave(c);
}

void ClusterComm::allgather(ult::TaskContext& ctx, const void* sendbuf,
                            std::size_t bytes, void* recvbuf) {
  CollCall c = enter(ctx, "cluster allgather", std::nullopt);
  const std::size_t node_block = static_cast<std::size_t>(rpn_) * bytes;
  auto* out = static_cast<std::byte*>(recvbuf);
  auto* mine = out + static_cast<std::size_t>(c.pos) * node_block;
  // Local tier: the leader gathers its node's block in place, at the
  // node's POSITION slot of the live-rank-ordered result (dead nodes
  // leave no gap — the output is compacted by survivor position).
  c.nc.gather(c.lctx, sendbuf, bytes, c.local == 0 ? mine : nullptr, 0);
  if (c.local == 0 && c.npos > 1) {
    // Leader tier: linear block exchange. Fabric sends complete
    // immediately (always-copy), so send-all-then-receive-all cannot
    // deadlock.
    for (int p = 0; p < c.npos; ++p) {
      if (p != c.pos) to_leader(c, p, mine, node_block);
    }
    for (int p = 0; p < c.npos; ++p) {
      if (p == c.pos) continue;
      from_leader(c, p, out + static_cast<std::size_t>(p) * node_block,
                  node_block);
    }
  }
  // Local tier: share the assembled result.
  c.nc.bcast(c.lctx, recvbuf, static_cast<std::size_t>(c.npos) * node_block,
             0);
  leave(c);
}

// ---- shrink and recover ----

void ClusterComm::install_view(std::uint64_t expected_epoch,
                               std::uint64_t dead_mask) {
  std::lock_guard<std::mutex> lk(view_mu_);
  if (view_->epoch != expected_epoch) return;  // another leader won
  auto v = std::make_shared<View>();
  v->epoch = expected_epoch + 1;
  for (int n : view_->live) {
    if ((dead_mask >> n & 1u) == 0) v->live.push_back(n);
  }
  view_ = std::move(v);
}

ShrinkReport ClusterComm::shrink(ult::TaskContext& ctx) {
  const int g = rank(ctx);
  const int node = node_of(g);
  const auto view = snapshot_view();
  if (pos_of(*view, node) < 0) {
    throw NodeDeadError(node, "shrink: node " + std::to_string(node) +
                                  " was excluded by an earlier shrink");
  }
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  // Sample the reset generation BEFORE the quiescing barrier: the leader
  // bumps it after the barrier, so sampling first guarantees every rank
  // holds the pre-shrink value and cannot miss the bump.
  std::atomic<std::uint32_t>& reset_gen =
      gate_[static_cast<std::size_t>(node)].reset_gen;
  const std::uint32_t gen0 = reset_gen.load(std::memory_order_acquire);
  // Quiesce the node: after this barrier every co-resident rank has
  // unwound from the failed collective (the gates guarantee they threw
  // together) and is inside shrink.
  nc.barrier(lctx);

  struct Pod {
    std::uint64_t mask = 0;
    std::uint64_t epoch = 0;
    std::int32_t attempts = 0;
    std::int32_t status = 0;  // 0 ok, 1 self declared dead, 2 no agreement
  } pod;
  if (local_of(g) == 0) {
    try {
      recover::FabricRecoveryChannel ch(*fabric_, node);
      recover::ShrinkConfig cfg;
      cfg.round_timeout = shrink_round_timeout_;
      cfg.epoch = static_cast<std::uint32_t>(view->epoch);
      const recover::ShrinkDecision dec =
          recover::shrink_agree(ctx, ch, node, view->live, cfg);
      install_view(view->epoch, dec.dead_mask);
      fabric_->heal(dec.dead_mask);
      // Rebuild the node's collective control blocks. The gates kept them
      // consistent (local phases never abort halfway), so this is a cheap
      // belt-and-suspenders re-zeroing, and it also clears any stale
      // intra-node unexpected traffic.
      cluster_->node_runtime(node).reset_collectives();
      pod.mask = dec.dead_mask;
      pod.epoch = view->epoch + 1;
      pod.attempts = dec.attempts;
#if HLSMPC_OBS_ENABLED
      if (obs_ != nullptr) {
        obs_->count(g, obs::Counter::recoveries);
        obs::Event e;
        e.kind = obs::EventKind::recovery;
        e.task = g;
        e.cpu = ctx.cpu();
        e.t0 = e.t1 = obs_->now();
        e.arg = static_cast<std::int64_t>(dec.dead_mask);
        e.arg2 = dec.attempts;
        obs_->record(e);
      }
#endif
    } catch (const NodeDeadError&) {
      pod.status = 1;
    } catch (const MpiError&) {
      pod.status = 2;
    }
    // Release the node only now: reset_collectives() is quiescent-only,
    // and without this gate a co-resident rank could already be waiting
    // inside the pod bcast when the engine is re-zeroed under it —
    // wiping its arrival and wedging the node. Bumped on the failure
    // paths too (no reset happened, but the waiters must still wake).
    reset_gen.store(gen0 + 1, std::memory_order_release);
  } else {
    while (reset_gen.load(std::memory_order_acquire) == gen0) {
      ctx.yield();
    }
  }
  nc.bcast(lctx, &pod, sizeof(pod), 0);
  nc.barrier(lctx);
  if (pod.status == 1) {
    throw NodeDeadError(node, "shrink: node " + std::to_string(node) +
                                  " was declared dead by the survivors");
  }
  if (pod.status == 2) {
    throw MpiError("shrink: agreement did not converge");
  }
  // Restart collective numbering under the new epoch — every survivor
  // rank resets its own counter here, inside the collective, so the
  // counters stay in lockstep.
  coll_seq_[static_cast<std::size_t>(g)] = 0;

  ShrinkReport rep;
  rep.epoch = pod.epoch;
  rep.dead_mask = pod.mask;
  rep.attempts = pod.attempts;
  for (int n : view->live) {
    if ((pod.mask >> n & 1u) == 0) rep.live.push_back(n);
  }
  return rep;
}

void ClusterComm::readmit(int node) {
  std::lock_guard<std::mutex> lk(view_mu_);
  auto v = std::make_shared<View>();
  v->epoch = view_->epoch + 1;
  v->live = view_->live;
  const auto it = std::lower_bound(v->live.begin(), v->live.end(), node);
  if (it == v->live.end() || *it != node) v->live.insert(it, node);
  view_ = std::move(v);
  // The respawned node's runtime is brand new — rebind its world comm.
  node_world_[static_cast<std::size_t>(node)] =
      &cluster_->node_runtime(node).world();
  // Everybody starts the next run with fresh collective numbering (the
  // epoch bump keeps any earlier traffic unmatchable anyway).
  std::fill(coll_seq_.begin(), coll_seq_.end(), 0);
}

}  // namespace hlsmpc::mpi
