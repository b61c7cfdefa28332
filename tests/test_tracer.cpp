// End-to-end automatic HLS-eligibility detection: run real MPI programs
// with a RuntimeTracer chained onto the runtime's obs stream and check the
// advice (the paper's future-work tool, conclusion + §III).
#include <gtest/gtest.h>

#include <atomic>

#include "hb/runtime_tracer.hpp"
#include "mpi/runtime.hpp"
#include "obs/recorder.hpp"
#include "topo/topology.hpp"

namespace mpi = hlsmpc::mpi;
namespace hb = hlsmpc::hb;
namespace obs = hlsmpc::obs;
namespace topo = hlsmpc::topo;
using hlsmpc::ult::TaskContext;

namespace {

/// The attach path: a recorder without event rings, with the tracer
/// chained on, passed as the runtime's obs recorder.
struct Traced {
  explicit Traced(int n) : tracer(n), rec({.ntasks = n, .ring_capacity = 0}) {
    rec.chain(&tracer);
  }
  hb::RuntimeTracer tracer;
  obs::Recorder rec;
};

mpi::Runtime make_rt(int n, obs::Recorder& rec, bool enable_shm = true) {
  mpi::Options o;
  o.nranks = n;
  o.obs = &rec;
  o.coll.enable_shm = enable_shm;
  return mpi::Runtime(topo::Machine::nehalem_ex(1), o);
}

/// Rank 0 writes two values before a barrier and every rank reads the
/// last one after it: the read is only coherent through the barrier's
/// edges.
std::vector<hb::Advice> barrier_publishes_advice(bool enable_shm) {
  constexpr int kRanks = 4;
  Traced t(kRanks);
  mpi::Runtime rt = make_rt(kRanks, t.rec, enable_shm);
  EXPECT_EQ(rt.world().shm_engine() != nullptr, enable_shm);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      t.tracer.on_write(me, "x", 0);
      t.tracer.on_write(me, "x", 5);
    }
    world.barrier(ctx);
    t.tracer.on_read(me, "x", 5);
  });
  return t.tracer.advise();
}

}  // namespace

TEST(RuntimeTracer, RecordsP2pSynchronization) {
  Traced t(2);
  hb::RuntimeTracer& tracer = t.tracer;
  mpi::Runtime rt = make_rt(2, t.rec);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      tracer.on_write(0, "x", 7);
      world.send_value(ctx, 7, 1, 3);
    } else {
      (void)world.recv_value<int>(ctx, 0, 3);
      tracer.on_read(1, "x", 7);
    }
  });

  const hb::Trace trace = tracer.trace();
  // write, send | recv, read
  ASSERT_EQ(trace.events().size(), 4u);
  hb::Analyzer analyzer(trace);
  // The write happens before the read through the message.
  const auto& order0 = trace.program_order(0);
  const auto& order1 = trace.program_order(1);
  EXPECT_TRUE(analyzer.happens_before(order0[0], order1[1]));
  const auto result = analyzer.analyze();
  EXPECT_EQ(result.for_var("x").eligibility, hb::Eligibility::eligible);
}

TEST(RuntimeTracer, CollectivesSynchronizeThroughTheirMessages) {
  // p2p collective algorithms: the barrier is built from messages the
  // tracer records as send/recv edges.
  const auto advice = barrier_publishes_advice(/*enable_shm=*/false);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::share_as_is)
      << advice[0].text;
}

TEST(RuntimeTracer, ShmCollectivesSynchronizeWithoutMessages) {
  // The shared-memory engine's barrier sends no message; the tracer
  // models its edges from the `collective` events instead.
  const auto advice = barrier_publishes_advice(/*enable_shm=*/true);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::share_as_is)
      << advice[0].text;
}

TEST(RuntimeTracer, ShmBcastOrdersRootWritesBeforeReaders) {
  // Rooted shm bcast from a non-zero root: the root's writes before the
  // call happen-before every reader's reads after it.
  constexpr int kRanks = 4;
  constexpr int kRoot = 2;
  Traced t(kRanks);
  mpi::Runtime rt = make_rt(kRanks, t.rec);
  ASSERT_NE(rt.world().shm_engine(), nullptr);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    int v = 0;
    if (me == kRoot) {
      t.tracer.on_write(me, "x", 0);
      t.tracer.on_write(me, "x", 5);
      v = 5;
    }
    world.bcast(ctx, &v, sizeof(v), kRoot);
    t.tracer.on_read(me, "x", v);
  });
  const auto advice = t.tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::share_as_is)
      << advice[0].text;
}

TEST(RuntimeTracer, WriteAfterShmCollectiveStaysUnordered) {
  // Guards against over-modelled edges: a collective orders what precedes
  // it, not what follows. Rank 0 writes after the barrier and rank 1 reads
  // with no later synchronization, so the read races the writes.
  constexpr int kRanks = 4;
  Traced t(kRanks);
  mpi::Runtime rt = make_rt(kRanks, t.rec);
  ASSERT_NE(rt.world().shm_engine(), nullptr);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    world.barrier(ctx);
    if (me == 0) {
      t.tracer.on_write(me, "x", 0);
      t.tracer.on_write(me, "x", 5);
    } else if (me == 1) {
      t.tracer.on_read(me, "x", 5);
    }
  });
  const auto advice = t.tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_NE(advice[0].recommendation, hb::Recommendation::share_as_is)
      << advice[0].text;
}

TEST(RuntimeTracer, DetectsRankDependentVariable) {
  constexpr int kRanks = 4;
  Traced t(kRanks);
  hb::RuntimeTracer& tracer = t.tracer;
  mpi::Runtime rt = make_rt(kRanks, t.rec);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    tracer.on_write(me, "my_rank", me);
    world.barrier(ctx);
    tracer.on_read(me, "my_rank", me);
  });

  const auto advice = tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::keep_private);
  EXPECT_FALSE(advice[0].spmd_identical_writes);
}

TEST(RuntimeTracer, DetectsSpmdUpdatePattern) {
  // The listing-1 pattern: every rank recomputes the variable identically
  // each step with no separating barrier -> advise single insertion.
  constexpr int kRanks = 3;
  Traced t(kRanks);
  hb::RuntimeTracer& tracer = t.tracer;
  mpi::Runtime rt = make_rt(kRanks, t.rec);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (int step = 1; step <= 2; ++step) {
      tracer.on_write(me, "cfg", step * 10);
      tracer.on_read(me, "cfg", step * 10);
    }
  });

  const auto advice = tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation,
            hb::Recommendation::wrap_writes_in_single);
}

TEST(RuntimeTracer, SendrecvRingIsCaptured) {
  constexpr int kRanks = 4;
  Traced t(kRanks);
  hb::RuntimeTracer& tracer = t.tracer;
  mpi::Runtime rt = make_rt(kRanks, t.rec);
  std::atomic<int> sum{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    int got = -1;
    world.sendrecv(ctx, &me, sizeof(int), (me + 1) % kRanks, 0, &got,
                   sizeof(int), (me + 3) % kRanks, 0);
    sum += got;
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
  // One send + one recv per rank.
  EXPECT_EQ(tracer.num_events(), 2u * kRanks);
  // The trace replays cleanly (all recvs matched).
  EXPECT_NO_THROW(hb::Analyzer{tracer.trace()});
}

TEST(RuntimeTracer, NumEventsCountsAppAndRuntimeEvents) {
  Traced t(2);
  hb::RuntimeTracer& tracer = t.tracer;
  mpi::Runtime rt = make_rt(2, t.rec);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    tracer.on_write(world.rank(ctx), "v", 1);
  });
  EXPECT_EQ(tracer.num_events(), 2u);
  EXPECT_THROW(hb::RuntimeTracer{0}, hlsmpc::hls::HlsError);
}
