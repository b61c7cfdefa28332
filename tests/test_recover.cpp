// Shrink-and-recover: the full fault-tolerance story end to end.
//
// The load-bearing checks:
//  - kill -> shrink -> continue: a fabric-killed node no longer ends the
//    job. Survivors get a NodeDeadError, run ClusterComm::shrink(), and a
//    subsequent NON-COMMUTATIVE allreduce on the shrunken communicator
//    produces the exact ascending-global-rank fold over the survivors —
//    swept over 2..4 nodes x 1..4 ranks per node;
//  - kill -> respawn -> continue: SimCluster::respawn re-creates the dead
//    node, readmits it, and the full world works again (including the
//    injected launch-failure path of the "cluster:respawn" site);
//  - the shrink agreement survives a ScheduleExplorer sweep (its
//    "shrink:round" sync point makes every round's interleaving
//    explorable);
//  - HLS checkpoint/restore: bit-identical round trip, torn-write
//    fallback to the previous version ("ckpt:write" injection), pruning,
//    and the warm-restart composition — a respawned node restored from a
//    checkpoint reads back exactly the committed scope data.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "check/explorer.hpp"
#include "fault/injector.hpp"
#include "hls/checkpoint.hpp"
#include "hls/hls.hpp"
#include "mpi/mpi.hpp"
#include "mpi/recover.hpp"
#include "obs/recorder.hpp"

namespace check = hlsmpc::check;
namespace fault = hlsmpc::fault;
namespace hls = hlsmpc::hls;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
namespace topo = hlsmpc::topo;
using hlsmpc::ult::TaskContext;

namespace {

// ---- the non-commutative operator (test_coll.cpp's algebra) ----

constexpr std::int64_t kMod = 1009;

struct Mat {
  std::int32_t a, b, c, d;
  friend bool operator==(const Mat&, const Mat&) = default;
};

Mat mul(const Mat& x, const Mat& y) {
  const auto m = [](std::int64_t v) {
    return static_cast<std::int32_t>(((v % kMod) + kMod) % kMod);
  };
  return Mat{
      m(static_cast<std::int64_t>(x.a) * y.a +
        static_cast<std::int64_t>(x.b) * y.c),
      m(static_cast<std::int64_t>(x.a) * y.b +
        static_cast<std::int64_t>(x.b) * y.d),
      m(static_cast<std::int64_t>(x.c) * y.a +
        static_cast<std::int64_t>(x.d) * y.c),
      m(static_cast<std::int64_t>(x.c) * y.b +
        static_cast<std::int64_t>(x.d) * y.d),
  };
}

mpi::ReduceFn mat_fn() {
  return [](void* inout, const void* in, std::size_t count) {
    Mat* x = static_cast<Mat*>(inout);
    const Mat* y = static_cast<const Mat*>(in);
    for (std::size_t i = 0; i < count; ++i) x[i] = mul(x[i], y[i]);
  };
}

Mat contrib(int r, std::size_t i) {
  return Mat{static_cast<std::int32_t>(1 + (2 * r + i) % 5),
             static_cast<std::int32_t>((r + 2 * i + 1) % 7),
             static_cast<std::int32_t>((r * r + 3 * i + 2) % 6),
             static_cast<std::int32_t>(1 + (3 * r + 2 * i) % 4)};
}

std::vector<Mat> make_contrib(int r, std::size_t count) {
  std::vector<Mat> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = contrib(r, i);
  return v;
}

/// Ascending fold over an explicit global-rank list — what a shrunken
/// communicator must produce: the exact fold over SURVIVING contributions.
std::vector<Mat> reference_over(const std::vector<int>& granks,
                                std::size_t count) {
  std::vector<Mat> ref = make_contrib(granks.front(), count);
  for (std::size_t k = 1; k < granks.size(); ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      ref[i] = mul(ref[i], contrib(granks[k], i));
    }
  }
  return ref;
}

std::vector<Mat> reference(int upto, std::size_t count) {
  std::vector<int> granks;
  for (int r = 0; r <= upto; ++r) granks.push_back(r);
  return reference_over(granks, count);
}

struct Param {
  int nnodes;
  int rpn;
  mpi::ExecutorKind exec;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::to_string(info.param.nnodes) + "nodes_" +
         std::to_string(info.param.rpn) + "rpn_" +
         (info.param.exec == mpi::ExecutorKind::thread ? "thread" : "fiber");
}

mpi::ClusterOptions copts(const Param& p) {
  mpi::ClusterOptions o;
  o.nnodes = p.nnodes;
  o.ranks_per_node = p.rpn;
  o.executor = p.exec;
  return o;
}

class RecoverParam : public testing::TestWithParam<Param> {
 protected:
  mpi::SimCluster cluster_{copts(GetParam())};
  int nranks_ = cluster_.nranks();
};

/// Global ranks of every node except `victim`, ascending.
std::vector<int> surviving_granks(int nnodes, int rpn, int victim) {
  std::vector<int> g;
  for (int n = 0; n < nnodes; ++n) {
    if (n == victim) continue;
    for (int l = 0; l < rpn; ++l) g.push_back(n * rpn + l);
  }
  return g;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoverParam,
    testing::Values(Param{2, 1, mpi::ExecutorKind::thread},
                    Param{2, 2, mpi::ExecutorKind::thread},
                    Param{3, 2, mpi::ExecutorKind::thread},
                    Param{3, 4, mpi::ExecutorKind::thread},
                    Param{4, 1, mpi::ExecutorKind::thread},
                    Param{4, 4, mpi::ExecutorKind::thread},
                    Param{2, 2, mpi::ExecutorKind::fiber}),
    param_name);

// ---- kill -> shrink -> continue ----

TEST_P(RecoverParam, KillShrinkContinueFoldsOverSurvivors) {
  const std::size_t count = 65;  // past the shm engine's small threshold
  const int victim = cluster_.nnodes() - 1;
  const std::vector<int> survivors =
      surviving_granks(cluster_.nnodes(), cluster_.ranks_per_node(), victim);
  const std::vector<Mat> want_full = reference(nranks_ - 1, count);
  const std::vector<Mat> want_shrunk = reference_over(survivors, count);
  std::atomic<int> phase1_ok{0}, named{0}, shrunk_ok{0}, phase3_ok{0};

  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count);

    // Phase 1: the full world still works. The victim's kill races with
    // the other nodes' unwind, so a survivor may already see the death
    // HERE (its node's exit gate reads the poison) — that is this rank's
    // detection point, and phase 2 would throw at entry anyway. The
    // victim's own ranks never throw in phase 1: the kill strictly
    // follows the victim leader's phase-1 unwind, and the fused gate
    // published its verdict before that.
    bool detected = false;
    try {
      comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                     mat_fn());
      if (out == want_full) phase1_ok.fetch_add(1);
    } catch (const mpi::NodeDeadError& e) {
      if (e.node() == victim) named.fetch_add(1);
      detected = true;
    }

    if (comm.node_of(g) == victim) {
      // The victim drops off the network; all its ranks unwind.
      if (comm.local_of(g) == 0) comm.fabric().kill_node(victim);
      return;
    }

    // Phase 2: survivors' next collective must fail and NAME the victim.
    if (!detected) {
      try {
        comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                       mat_fn());
        ADD_FAILURE() << "rank " << g << " completed against a dead node";
      } catch (const mpi::NodeDeadError& e) {
        if (e.node() == victim) named.fetch_add(1);
      }
    }

    // Recover: all survivor ranks run the collective shrink.
    const mpi::ShrinkReport rep = comm.shrink(ctx);
    bool ok = rep.dead_mask == (std::uint64_t{1} << victim);
    ok = ok && rep.epoch == 1 && static_cast<int>(rep.live.size()) ==
                                     cluster_.nnodes() - 1;
    for (int n : rep.live) ok = ok && n != victim;
    if (ok) shrunk_ok.fetch_add(1);

    // Phase 3: the shrunken world folds exactly over the survivors.
    comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
    if (out == want_shrunk) phase3_ok.fetch_add(1);
  });

  const int nsurvivors = static_cast<int>(survivors.size());
  // Every rank that completed phase 1 folded the full world; at minimum
  // the victim's ranks did (their unwind precedes the kill).
  EXPECT_GE(phase1_ok.load(), cluster_.ranks_per_node());
  EXPECT_LE(phase1_ok.load(), nranks_);
  // Every survivor saw the death named exactly once, in phase 1 or 2.
  EXPECT_EQ(named.load(), nsurvivors);
  EXPECT_EQ(shrunk_ok.load(), nsurvivors);
  EXPECT_EQ(phase3_ok.load(), nsurvivors);
  EXPECT_EQ(cluster_.comm().size(), nsurvivors);
  EXPECT_EQ(cluster_.comm().view_epoch(), 1u);
}

// ---- kill -> respawn -> readmit -> continue ----

TEST_P(RecoverParam, KillRespawnReadmitRestoresFullWorld) {
  const std::size_t count = 33;
  const int victim = cluster_.nnodes() - 1;
  const std::vector<int> survivors =
      surviving_granks(cluster_.nnodes(), cluster_.ranks_per_node(), victim);

  // Run 1: the victim dies, survivors shrink and keep working.
  std::atomic<int> recovered{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    if (comm.node_of(g) == victim) {
      if (comm.local_of(g) == 0) comm.fabric().kill_node(victim);
      return;
    }
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count);
    try {
      comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                     mat_fn());
    } catch (const mpi::NodeDeadError&) {
    }
    comm.shrink(ctx);
    comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
    if (out == reference_over(survivors, count)) recovered.fetch_add(1);
  });
  EXPECT_EQ(recovered.load(), static_cast<int>(survivors.size()));

  // Replacement node: between runs, respawn + readmit.
  cluster_.respawn(victim);
  EXPECT_EQ(static_cast<int>(cluster_.comm().live_nodes().size()),
            cluster_.nnodes());
  EXPECT_EQ(cluster_.comm().size(), nranks_);
  EXPECT_FALSE(cluster_.fabric().node_dead(victim));

  // Run 2: the full world again, exact full fold.
  const std::vector<Mat> want_full = reference(nranks_ - 1, count);
  std::atomic<int> full_ok{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count);
    comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
    if (out == want_full) full_ok.fetch_add(1);
  });
  EXPECT_EQ(full_ok.load(), nranks_);
}

TEST(Recover, RespawnLaunchFailureIsCleanAndRetryable) {
  mpi::SimCluster cluster(copts({2, 1, mpi::ExecutorKind::thread}));
  // A live node cannot be "respawned".
  EXPECT_THROW(cluster.respawn(1), mpi::MpiError);

  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    if (comm.rank(ctx) == 1) {
      comm.fabric().kill_node(1);
      return;
    }
    try {
      comm.barrier(ctx);
    } catch (const mpi::NodeDeadError&) {
    }
    comm.shrink(ctx);
  });
  ASSERT_EQ(cluster.comm().live_nodes(), std::vector<int>({0}));

  // The replacement fails to launch ("cluster:respawn", operand = node):
  // the node must stay dead and the view untouched, and a later respawn
  // must still succeed.
  {
    fault::FaultInjector inj;
    inj.arm("cluster:respawn", /*nth=*/1, /*index=*/1);
    fault::ScopedFaultInjection scoped(inj);
    EXPECT_THROW(cluster.respawn(1), mpi::MpiError);
    EXPECT_EQ(inj.fired("cluster:respawn"), 1u);
  }
  EXPECT_TRUE(cluster.fabric().node_dead(1));
  EXPECT_EQ(cluster.comm().live_nodes(), std::vector<int>({0}));

  cluster.respawn(1);
  EXPECT_EQ(cluster.comm().live_nodes(), std::vector<int>({0, 1}));
  EXPECT_FALSE(cluster.fabric().node_dead(1));
}

// ---- the agreement under the schedule explorer ----

TEST(RecoverExplore, ShrinkAgreementSurvivesScheduleSweep) {
  // Three single-rank nodes; node 2 dies at a point the explorer chooses
  // (its kill races the survivors' collective and every "shrink:round"
  // sync point). Under EVERY schedule the survivors must converge on
  // live = {0, 1} and the shrunken allreduce must fold exactly.
  const std::size_t count = 3;
  check::ExploreOptions eo;
  eo.schedules = 40;
  eo.max_steps = 200000;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res =
      explorer.explore([&](hlsmpc::ult::Executor& ex) {
        mpi::SimCluster cluster(copts({3, 1, mpi::ExecutorKind::thread}));
        const std::vector<Mat> want = reference_over({0, 1}, count);
        cluster.run_on(ex, [&](mpi::ClusterComm& comm, TaskContext& ctx) {
          const int g = comm.rank(ctx);
          if (g == 2) {
            comm.fabric().kill_node(2);
            return;
          }
          const std::vector<Mat> in = make_contrib(g, count);
          std::vector<Mat> out(count);
          try {
            comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                           mat_fn());
            throw std::runtime_error("rank " + std::to_string(g) +
                                     " completed against the dead node");
          } catch (const mpi::NodeDeadError&) {
          }
          const mpi::ShrinkReport rep = comm.shrink(ctx);
          if (rep.live != std::vector<int>({0, 1})) {
            throw std::runtime_error("wrong survivor set");
          }
          comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                         mat_fn());
          if (out != want) {
            throw std::runtime_error(
                "rank " + std::to_string(g) +
                ": wrong shrunken fold under explored schedule");
          }
        });
      });
  EXPECT_TRUE(res.ok) << res.repro;
  EXPECT_GE(res.schedules_run, eo.schedules);
}

TEST(Recover, ObsCountsRecoveryEpisode) {
  obs::RecorderOptions ro;
  ro.ntasks = 4;
  obs::Recorder rec(ro);
  mpi::ClusterOptions o;
  o.nnodes = 2;
  o.ranks_per_node = 2;
  o.obs = &rec;
  mpi::SimCluster cluster(o);
  std::atomic<int> named{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    if (comm.node_of(g) == 1) {
      if (comm.local_of(g) == 0) comm.fabric().kill_node(1);
      return;
    }
    try {
      comm.barrier(ctx);
    } catch (const mpi::NodeDeadError&) {
    }
    const mpi::ShrinkReport rep = comm.shrink(ctx);
    if (rep.dead_mask == 0b10u && rep.live == std::vector<int>{0}) {
      named.fetch_add(1);
    }
  });
  EXPECT_EQ(named.load(), 2);
  const obs::Snapshot s = rec.snapshot();
#if HLSMPC_OBS_ENABLED
  EXPECT_EQ(s.total.c[static_cast<int>(obs::Counter::recoveries)], 1u);
#else
  // Compiled out: the recorder is inert, every counter stays 0.
  for (std::uint64_t v : s.total.c) EXPECT_EQ(v, 0u);
  for (const auto& t : s.tasks) {
    for (std::uint64_t v : t.c) EXPECT_EQ(v, 0u);
  }
#endif
}

// ---- HLS checkpoint/restore ----

namespace {

std::uint8_t pattern(int instance, std::size_t i, int salt) {
  return static_cast<std::uint8_t>(instance * 97 + i * 31 + salt);
}

struct StateVars {
  hlsmpc::hls::VarHandle blob;     // node scope, 4 KiB
  hlsmpc::hls::VarHandle percore;  // core scope, 256 B per instance
};

StateVars register_state(hls::Runtime& rt) {
  hls::ModuleBuilder mb(rt.registry(), "state");
  auto blob =
      hls::add_array<std::uint8_t>(mb, "blob", 4096, topo::node_scope());
  auto percore =
      hls::add_array<std::uint8_t>(mb, "percore", 256, topo::core_scope());
  mb.commit();
  return {blob.handle(), percore.handle()};
}

/// Fill (or verify) every instance of `h` with pattern(instance, i, salt),
/// materializing lazily via get_addr like a task's first touch would.
void fill_all(hls::Runtime& rt, const hls::VarHandle& h, int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) p[i] = pattern(inst, i, salt);
  }
}

testing::AssertionResult all_match(hls::Runtime& rt, const hls::VarHandle& h,
                                   int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    const auto* p =
        static_cast<const std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) {
      if (p[i] != pattern(inst, i, salt)) {
        return testing::AssertionFailure()
               << "instance " << inst << " byte " << i << ": "
               << static_cast<int>(p[i]) << " != expected "
               << static_cast<int>(pattern(inst, i, salt));
      }
    }
  }
  return testing::AssertionSuccess();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  // Stale version files from an earlier run would satisfy restore().
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

}  // namespace

TEST(Checkpoint, RoundTripIsBitIdentical) {
  const std::string dir = fresh_dir("hls_ckpt_roundtrip");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});

  {
    hls::Runtime rt(m, 1);
    const StateVars v = register_state(rt);
    fill_all(rt, v.blob, /*salt=*/5);
    fill_all(rt, v.percore, /*salt=*/9);
    EXPECT_EQ(rt.checkpoint(store, topo::node_scope()), 1u);
    EXPECT_EQ(rt.checkpoint(store, topo::core_scope()), 1u);
  }

  // A fresh runtime (the respawned process) with the same registration
  // restores every instance bit-identically — including regions it never
  // touched, which restore first-touches itself.
  hls::Runtime rt2(m, 1);
  const StateVars v2 = register_state(rt2);
  EXPECT_EQ(rt2.restore(store, topo::node_scope()), 1u);
  EXPECT_EQ(rt2.restore(store, topo::core_scope()), 1u);
  EXPECT_TRUE(all_match(rt2, v2.blob, 5));
  EXPECT_TRUE(all_match(rt2, v2.percore, 9));

  const auto node_scope_c =
      hls::canonicalize(rt2.scope_map(), topo::node_scope());
  EXPECT_EQ(store.versions(node_scope_c),
            std::vector<std::uint64_t>({1}));
}

TEST(Checkpoint, TornWriteFallsBackToPreviousVersion) {
  const std::string dir = fresh_dir("hls_ckpt_torn");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});
  hls::Runtime rt(m, 1);
  const StateVars v = register_state(rt);

  fill_all(rt, v.blob, /*salt=*/1);
  ASSERT_EQ(rt.checkpoint(store, topo::node_scope()), 1u);

  // Version 2 is torn mid-payload (crash model: published, no CRC).
  fill_all(rt, v.blob, /*salt=*/2);
  {
    fault::FaultInjector inj;
    inj.arm("ckpt:write");
    fault::ScopedFaultInjection scoped(inj);
    EXPECT_EQ(rt.checkpoint(store, topo::node_scope()), 2u);
    EXPECT_EQ(inj.fired("ckpt:write"), 1u);
  }
  const auto scope_c = hls::canonicalize(rt.scope_map(), topo::node_scope());
  EXPECT_EQ(store.versions(scope_c), std::vector<std::uint64_t>({1, 2}));

  // Restore must reject the torn newest and fall back — overwriting the
  // live (mutated-again) state with version 1's payload.
  fill_all(rt, v.blob, /*salt=*/3);
  EXPECT_EQ(rt.restore(store, topo::node_scope()), 1u);
  EXPECT_TRUE(all_match(rt, v.blob, 1));
}

TEST(Checkpoint, EmptyStoreRestoreThrows) {
  const std::string dir = fresh_dir("hls_ckpt_empty");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});
  hls::Runtime rt(m, 1);
  register_state(rt);
  EXPECT_THROW(rt.restore(store, topo::node_scope()), hls::HlsError);
}

TEST(Checkpoint, PrunesBeyondKeep) {
  const std::string dir = fresh_dir("hls_ckpt_prune");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});  // keep = 2 (the default)
  hls::Runtime rt(m, 1);
  const StateVars v = register_state(rt);
  for (int salt = 1; salt <= 3; ++salt) {
    fill_all(rt, v.blob, salt);
    rt.checkpoint(store, topo::node_scope());
  }
  const auto scope_c = hls::canonicalize(rt.scope_map(), topo::node_scope());
  EXPECT_EQ(store.versions(scope_c), std::vector<std::uint64_t>({2, 3}));
  EXPECT_EQ(rt.restore(store, topo::node_scope()), 3u);
  EXPECT_TRUE(all_match(rt, v.blob, 3));
}

// Crash durability: rename alone does not make the published version
// survive a power cut — the directory entry must reach disk too. Every
// publishing rename and every pruning unlink batch must be followed by an
// fsync of the checkpoint directory (the "ckpt:dirsync" site).
TEST(Checkpoint, SaveFsyncsDirectoryAfterPublishAndPrune) {
  const std::string dir = fresh_dir("hls_ckpt_dirsync");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});  // keep = 2
  hls::Runtime rt(m, 1);
  const StateVars v = register_state(rt);

  // Installed but unarmed: the injector counts every crossing of the
  // site, proving the fsync sits on the save path.
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  fill_all(rt, v.blob, 1);
  rt.checkpoint(store, topo::node_scope());
  EXPECT_EQ(inj.hits("ckpt:dirsync"), 1u);  // publish
  fill_all(rt, v.blob, 2);
  rt.checkpoint(store, topo::node_scope());
  EXPECT_EQ(inj.hits("ckpt:dirsync"), 2u);  // publish; nothing pruned yet
  fill_all(rt, v.blob, 3);
  rt.checkpoint(store, topo::node_scope());
  // Publish + the prune that unlinked version 1.
  EXPECT_EQ(inj.hits("ckpt:dirsync"), 4u);
  EXPECT_EQ(inj.fired("ckpt:dirsync"), 0u);
}

TEST(Checkpoint, DirsyncFailureSurfacesAsError) {
  const std::string dir = fresh_dir("hls_ckpt_dirsync_eio");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});
  hls::Runtime rt(m, 1);
  const StateVars v = register_state(rt);
  fill_all(rt, v.blob, 1);
  {
    fault::FaultInjector inj;
    inj.arm("ckpt:dirsync");
    fault::ScopedFaultInjection scoped(inj);
    // An EIO from the directory fsync means the checkpoint may not be
    // durable: the save must report failure, never a version number.
    EXPECT_THROW(rt.checkpoint(store, topo::node_scope()), hls::HlsError);
    EXPECT_EQ(inj.fired("ckpt:dirsync"), 1u);
  }
  // The version file itself was published before the failed fsync; it is
  // intact, just not guaranteed durable — a rerun restores it normally.
  EXPECT_EQ(rt.restore(store, topo::node_scope()), 1u);
  EXPECT_TRUE(all_match(rt, v.blob, 1));
}

// Prune audit: with keep == 2, two torn saves in a row put three files in
// the store — valid v1, torn v2, torn v3. Blind oldest-first pruning
// would delete v1 and leave nothing restorable; the prune must protect
// the newest CRC-valid version and delete the torn middle instead.
TEST(Checkpoint, PruneNeverDeletesLastValidVersionUnderTornNewest) {
  const std::string dir = fresh_dir("hls_ckpt_torn_prune");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::CheckpointStore store({dir});  // keep = 2
  hls::Runtime rt(m, 1);
  const StateVars v = register_state(rt);

  fill_all(rt, v.blob, 1);
  ASSERT_EQ(rt.checkpoint(store, topo::node_scope()), 1u);
  {
    fault::FaultInjector inj;
    fault::ScopedFaultInjection scoped(inj);
    inj.arm("ckpt:write");
    fill_all(rt, v.blob, 2);
    EXPECT_EQ(rt.checkpoint(store, topo::node_scope()), 2u);  // torn
    inj.arm("ckpt:write");
    fill_all(rt, v.blob, 3);
    EXPECT_EQ(rt.checkpoint(store, topo::node_scope()), 3u);  // torn
    EXPECT_EQ(inj.fired("ckpt:write"), 2u);
  }
  // The prune after v3 had one version to cut: it must take torn v2, not
  // valid v1.
  const auto scope_c = hls::canonicalize(rt.scope_map(), topo::node_scope());
  EXPECT_EQ(store.versions(scope_c), std::vector<std::uint64_t>({1, 3}));
  fill_all(rt, v.blob, 4);  // mutate the live state before falling back
  EXPECT_EQ(rt.restore(store, topo::node_scope()), 1u);
  EXPECT_TRUE(all_match(rt, v.blob, 1));
}

// ---- the acceptance composition: warm restart of a respawned node ----

TEST(Recover, WarmRestartRespawnRestoresCheckpointBitIdentical) {
  const std::string dir = fresh_dir("hls_ckpt_warm_restart");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  constexpr int kVictim = 1;
  const std::size_t count = 17;

  // The victim node's HLS runtime checkpoints its committed scope data
  // before the crash (in a deployment: periodically, between episodes).
  {
    hls::Runtime rt(m, 1);
    const StateVars v = register_state(rt);
    fill_all(rt, v.blob, /*salt=*/7);
    hls::CheckpointStore store({dir});
    ASSERT_EQ(rt.checkpoint(store, topo::node_scope()), 1u);
  }

  // The node dies mid-job; survivors shrink and continue.
  mpi::SimCluster cluster(copts({2, 2, mpi::ExecutorKind::thread}));
  const std::vector<int> survivors = surviving_granks(2, 2, kVictim);
  std::atomic<int> recovered{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count);
    if (comm.node_of(g) == kVictim) {
      if (comm.local_of(g) == 0) comm.fabric().kill_node(kVictim);
      return;
    }
    try {
      comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                     mat_fn());
    } catch (const mpi::NodeDeadError&) {
    }
    comm.shrink(ctx);
    comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
    if (out == reference_over(survivors, count)) recovered.fetch_add(1);
  });
  ASSERT_EQ(recovered.load(), static_cast<int>(survivors.size()));

  // Warm restart: the replacement process restores the checkpoint into a
  // FRESH runtime and must read back the committed bytes bit-identically.
  {
    hls::Runtime replacement(m, 1);
    const StateVars v = register_state(replacement);
    hls::CheckpointStore store({dir});
    EXPECT_EQ(replacement.restore(store, topo::node_scope()), 1u);
    EXPECT_TRUE(all_match(replacement, v.blob, 7));
  }

  // ... and the respawned node rejoins the communicator: the full world
  // folds exactly again.
  cluster.respawn(kVictim);
  const std::vector<Mat> want_full = reference(cluster.nranks() - 1, count);
  std::atomic<int> full_ok{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count);
    comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
    if (out == want_full) full_ok.fetch_add(1);
  });
  EXPECT_EQ(full_ok.load(), cluster.nranks());
}
