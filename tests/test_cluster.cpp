// Simulated multi-node cluster: node-leader hierarchical collectives.
//
// The load-bearing checks:
//  - the non-commutative 2x2-matrix-over-Z1009 sweep (test_coll.cpp's
//    vocabulary) over 2..5 nodes x several ranks per node, thread and
//    fiber executors: hierarchical reduce/allreduce must fold in
//    ascending GLOBAL rank order even though the fold is factored into a
//    local tier and a leader tier;
//  - bcast from every root, allgather in global rank order, barrier;
//  - ScheduleExplorer drives a whole 2-node job through many
//    deterministic schedules (the fabric's sync points make leader
//    exchanges explorable);
//  - dead-node supervision: a killed node is detected and NAMED by every
//    surviving rank instead of deadlocking them, both for an explicit
//    kill_node and for an injected link failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "check/explorer.hpp"
#include "fault/injector.hpp"
#include "mpi/mpi.hpp"
#include "obs/recorder.hpp"

namespace check = hlsmpc::check;
namespace fault = hlsmpc::fault;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
using hlsmpc::ult::TaskContext;

namespace {

// ---- the non-commutative operator (same algebra as test_coll.cpp) ----

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

/// Global-rank-order fold v_0 * v_1 * ... * v_upto.
std::vector<Mat> reference(int upto, std::size_t count) {
  std::vector<Mat> ref = make_contrib(0, count);
  for (int r = 1; r <= upto; ++r) {
    for (std::size_t i = 0; i < count; ++i) ref[i] = mul(ref[i], contrib(r, i));
  }
  return ref;
}

// Payloads straddling the shm engine's small_threshold and the eager
// threshold, so the local tier exercises its staged, zero-copy and
// rendezvous arms underneath the leader tier.
constexpr std::size_t kCounts[] = {1, 60, 65, 520};

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

class ClusterParam : public testing::TestWithParam<Param> {
 protected:
  mpi::SimCluster cluster_{copts(GetParam())};
  int nranks_ = cluster_.nranks();
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterParam,
    testing::Values(Param{2, 4, mpi::ExecutorKind::thread},
                    Param{3, 4, mpi::ExecutorKind::thread},
                    Param{4, 4, mpi::ExecutorKind::thread},
                    Param{3, 1, mpi::ExecutorKind::thread},
                    Param{2, 4, mpi::ExecutorKind::fiber},
                    Param{4, 2, mpi::ExecutorKind::fiber},
                    Param{5, 2, mpi::ExecutorKind::fiber}),
    param_name);

TEST(ClusterTopology, NodeMajorRankMapping) {
  mpi::SimCluster c(copts({3, 4, mpi::ExecutorKind::thread}));
  mpi::ClusterComm& comm = c.comm();
  EXPECT_EQ(comm.size(), 12);
  EXPECT_EQ(comm.nnodes(), 3);
  EXPECT_EQ(comm.node_of(0), 0);
  EXPECT_EQ(comm.node_of(7), 1);
  EXPECT_EQ(comm.local_of(7), 3);
  EXPECT_EQ(comm.leader_of(2), 8);
  EXPECT_EQ(comm.node_comm(1).size(), 4);
  EXPECT_EQ(comm.first_dead_node(), -1);
  EXPECT_STREQ(c.fabric().name(), "sim_fabric");
}

TEST_P(ClusterParam, AllreduceFoldsInGlobalRankOrder) {
  for (std::size_t count : kCounts) {
    const std::vector<Mat> want = reference(nranks_ - 1, count);
    std::atomic<int> checked{0};
    cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
      const int g = comm.rank(ctx);
      const std::vector<Mat> in = make_contrib(g, count);
      std::vector<Mat> out(count);
      comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                     mat_fn());
      if (out == want) checked.fetch_add(1);
    });
    EXPECT_EQ(checked.load(), nranks_) << "count=" << count;
  }
}

TEST_P(ClusterParam, ReduceToEveryRootFoldsInGlobalRankOrder) {
  const std::size_t count = 65;
  const std::vector<Mat> want = reference(nranks_ - 1, count);
  std::atomic<int> checked{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<Mat> out(count);
      comm.reduce(ctx, in.data(), g == root ? out.data() : nullptr, count,
                  sizeof(Mat), mat_fn(), root);
      if (g == root && out == want) checked.fetch_add(1);
    }
  });
  EXPECT_EQ(checked.load(), nranks_);
}

TEST_P(ClusterParam, BcastFromEveryRoot) {
  std::atomic<int> checked{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<Mat> buf =
          g == root ? make_contrib(root, 100) : std::vector<Mat>(100);
      comm.bcast(ctx, buf.data(), buf.size() * sizeof(Mat), root);
      if (buf == make_contrib(root, 100)) checked.fetch_add(1);
    }
  });
  EXPECT_EQ(checked.load(), nranks_ * nranks_);
}

TEST_P(ClusterParam, AllgatherOrdersBlocksByGlobalRank) {
  const std::size_t count = 33;
  std::atomic<int> checked{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const std::vector<Mat> in = make_contrib(g, count);
    std::vector<Mat> out(count * static_cast<std::size_t>(comm.size()));
    comm.allgather(ctx, in.data(), count * sizeof(Mat), out.data());
    bool ok = true;
    for (int r = 0; r < comm.size(); ++r) {
      const std::vector<Mat> want = make_contrib(r, count);
      for (std::size_t i = 0; i < count; ++i) {
        ok = ok && out[static_cast<std::size_t>(r) * count + i] == want[i];
      }
    }
    if (ok) checked.fetch_add(1);
  });
  EXPECT_EQ(checked.load(), nranks_);
}

TEST_P(ClusterParam, BarrierSeparatesPhases) {
  // Classic flag test: everyone writes before the barrier, everyone must
  // see all writes after it — across nodes, which is exactly what the
  // leader dissemination provides.
  std::vector<std::atomic<int>> flags(static_cast<std::size_t>(nranks_));
  for (auto& f : flags) f.store(0);
  std::atomic<int> ok{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    flags[static_cast<std::size_t>(g)].store(1);
    comm.barrier(ctx);
    int sum = 0;
    for (auto& f : flags) sum += f.load();
    if (sum == comm.size()) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), nranks_);
}

TEST_P(ClusterParam, LeaderTierMessageCounts) {
  // Pins the leader tier's fabric traffic per call for N live nodes:
  // ordered fold + bcast (allreduce), binomial bcast, ceil(log2 N)
  // dissemination rounds per leader (barrier), linear exchange
  // (allgather), and fold + one delivery hop (reduce to a root other
  // than rank 0). The local tier never touches the fabric.
  const int nn = cluster_.nnodes();
  int rounds = 0;
  while ((1 << rounds) < nn) ++rounds;
  const auto messages = [&](const mpi::SimCluster::Body& body) {
    const std::uint64_t m0 = cluster_.fabric().stats().messages.load();
    cluster_.run(body);
    return cluster_.fabric().stats().messages.load() - m0;
  };
  const auto count = [](int v) { return static_cast<std::uint64_t>(v); };
  const mpi::ReduceFn fn = mat_fn();

  EXPECT_EQ(messages([&](mpi::ClusterComm& comm, TaskContext& ctx) {
              const std::vector<Mat> in = make_contrib(comm.rank(ctx), 4);
              std::vector<Mat> out(4);
              comm.allreduce(ctx, in.data(), out.data(), 4, sizeof(Mat), fn);
            }),
            count(2 * (nn - 1)))
      << "allreduce";
  EXPECT_EQ(messages([&](mpi::ClusterComm& comm, TaskContext& ctx) {
              std::vector<Mat> buf(4);
              comm.bcast(ctx, buf.data(), 4 * sizeof(Mat), nranks_ - 1);
            }),
            count(nn - 1))
      << "bcast";
  EXPECT_EQ(messages([&](mpi::ClusterComm& comm, TaskContext& ctx) {
              comm.barrier(ctx);
            }),
            count(nn * rounds))
      << "barrier";
  EXPECT_EQ(messages([&](mpi::ClusterComm& comm, TaskContext& ctx) {
              const std::vector<Mat> in = make_contrib(comm.rank(ctx), 2);
              std::vector<Mat> out(2 * static_cast<std::size_t>(nranks_));
              comm.allgather(ctx, in.data(), 2 * sizeof(Mat), out.data());
            }),
            count(nn * (nn - 1)))
      << "allgather";
  EXPECT_EQ(messages([&](mpi::ClusterComm& comm, TaskContext& ctx) {
              const int g = comm.rank(ctx);
              const std::vector<Mat> in = make_contrib(g, 4);
              std::vector<Mat> out(4);
              comm.reduce(ctx, in.data(), out.data(), 4, sizeof(Mat), fn,
                          nranks_ - 1);
            }),
            count(nn))
      << "reduce to the last rank";
}

TEST_P(ClusterParam, GlobalPointToPointRing) {
  std::atomic<int> ok{0};
  cluster_.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    const int n = comm.size();
    const Mat mine = contrib(g, 7);
    comm.send(ctx, &mine, sizeof(mine), (g + 1) % n, 5);
    Mat got{};
    mpi::Status st;
    comm.recv(ctx, &got, sizeof(got), mpi::kAnySource, 5, &st);
    if (st.source == (g - 1 + n) % n && st.bytes == sizeof(Mat) &&
        got == contrib(st.source, 7)) {
      ok.fetch_add(1);
    }
  });
  EXPECT_EQ(ok.load(), nranks_);
}

TEST(Cluster, ObsCountsCollectivesAndFabricTraffic) {
  obs::RecorderOptions ro;
  ro.ntasks = 8;
  obs::Recorder rec(ro);
  mpi::ClusterOptions o;
  o.nnodes = 2;
  o.ranks_per_node = 4;
  o.obs = &rec;
  mpi::SimCluster cluster(o);
  std::atomic<int> summed{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    int v = 1, out = 0;
    comm.allreduce(ctx, &v, &out, 1, sizeof(int),
                   [](void* a, const void* b, std::size_t) {
                     *static_cast<int*>(a) += *static_cast<const int*>(b);
                   });
    if (out == 8) summed.fetch_add(1);
  });
  EXPECT_EQ(summed.load(), 8);
  const obs::Snapshot s = rec.snapshot();
#if HLSMPC_OBS_ENABLED
  // Every rank entered one cluster collective; only leaders (ranks 0 and
  // 4) touched the fabric.
  EXPECT_EQ(s.total.c[static_cast<int>(obs::Counter::coll_ops)], 8u);
  EXPECT_GT(s.total.c[static_cast<int>(obs::Counter::net_sends)], 0u);
  EXPECT_GT(s.total.c[static_cast<int>(obs::Counter::net_recvs)], 0u);
  for (int g : {1, 2, 3, 5, 6, 7}) {
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(g)]
                  .c[static_cast<int>(obs::Counter::net_sends)],
              0u)
        << "non-leader rank " << g << " must not touch the fabric";
  }
#else
  // Compiled out: the recorder is inert, every counter stays 0.
  for (std::uint64_t v : s.total.c) EXPECT_EQ(v, 0u);
  for (const auto& t : s.tasks) {
    for (std::uint64_t v : t.c) EXPECT_EQ(v, 0u);
  }
#endif
}

// ---- deterministic exploration of the leader exchange ----

TEST(ClusterExplore, AllreduceSurvivesScheduleSweep) {
  const std::size_t count = 3;
  check::ExploreOptions eo;
  eo.schedules = 60;
  eo.max_steps = 200000;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res =
      explorer.explore([&](hlsmpc::ult::Executor& ex) {
        mpi::SimCluster cluster(copts({2, 2, mpi::ExecutorKind::thread}));
        const std::vector<Mat> want = reference(3, count);
        cluster.run_on(ex, [&](mpi::ClusterComm& comm, TaskContext& ctx) {
          const int g = comm.rank(ctx);
          const std::vector<Mat> in = make_contrib(g, count);
          std::vector<Mat> out(count);
          comm.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                         mat_fn());
          if (out != want) {
            throw std::runtime_error("rank " + std::to_string(g) +
                                     ": wrong fold under explored schedule");
          }
        });
      });
  EXPECT_TRUE(res.ok) << res.repro;
  EXPECT_GE(res.schedules_run, eo.schedules);
}

// ---- dead-node supervision ----

TEST(ClusterDeath, KilledNodeIsNamedNotDeadlocked) {
  // Node 1 drops off the network mid-job (the kill models the watchdog
  // declaring it). Every surviving rank — leader blocked on the fabric
  // AND co-resident non-leaders inside the local tier — must get a
  // NodeDeadError naming node 1, not a hang.
  mpi::SimCluster cluster(copts({2, 2, mpi::ExecutorKind::thread}));
  std::atomic<int> named{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    if (comm.node_of(g) == 1) {
      comm.fabric().kill_node(1);
      return;  // the node's ranks are gone
    }
    int v = 1, out = 0;
    try {
      comm.allreduce(ctx, &v, &out, 1, sizeof(int),
                     [](void* a, const void* b, std::size_t) {
                       *static_cast<int*>(a) += *static_cast<const int*>(b);
                     });
      ADD_FAILURE() << "rank " << g << " completed against a dead node";
    } catch (const mpi::NodeDeadError& e) {
      if (e.node() == 1 &&
          std::string(e.what()).find("node 1") != std::string::npos) {
        named.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(named.load(), 2);
  EXPECT_EQ(cluster.comm().first_dead_node(), 1);
  EXPECT_TRUE(cluster.fabric().node_dead(1));
  EXPECT_FALSE(cluster.fabric().node_dead(0));
}

TEST(ClusterDeath, InjectedLinkFailureDeclaresPeerDead) {
  // An armed "fabric:send" site towards endpoint 0 makes node 1's leader
  // exchange fail with a recoverable transport error; supervision must
  // escalate it to "node 0 unreachable" and every rank must see that
  // name.
  fault::FaultInjector inj;
  inj.arm_always("fabric:send", /*index=*/0);
  fault::ScopedFaultInjection scoped(inj);
  mpi::SimCluster cluster(copts({2, 2, mpi::ExecutorKind::thread}));
  std::atomic<int> named{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    int v = 1, out = 0;
    try {
      comm.allreduce(ctx, &v, &out, 1, sizeof(int),
                     [](void* a, const void* b, std::size_t) {
                       *static_cast<int*>(a) += *static_cast<const int*>(b);
                     });
    } catch (const mpi::NodeDeadError& e) {
      if (e.node() == 0) named.fetch_add(1);
    }
  });
  EXPECT_EQ(named.load(), cluster.nranks());
  EXPECT_EQ(cluster.comm().first_dead_node(), 0);
  EXPECT_GE(inj.fired("fabric:send"), 1u);
}

TEST(ClusterDeath, PoisonedFabricFailsFastOnNewTraffic) {
  mpi::SimCluster cluster(copts({2, 1, mpi::ExecutorKind::thread}));
  cluster.fabric().kill_node(1);
  std::atomic<int> named{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    Mat m = contrib(g, 0);
    try {
      comm.send(ctx, &m, sizeof(m), 1 - g, 3);
      ADD_FAILURE() << "send on a poisoned fabric must fail";
    } catch (const mpi::NodeDeadError& e) {
      if (e.node() == 1) named.fetch_add(1);
    }
  });
  EXPECT_EQ(named.load(), 2);
}
