// Collective-engine test suite.
//
// The centerpiece is a non-commutative reduction sweep: contributions are
// 2x2 integer matrices over Z_1009 combined by matrix multiplication —
// associative but emphatically not commutative — so any engine that folds
// contributions out of ascending rank order (the old scan/exscan operand
// swap, the root-rotated p2p reduce tree) produces a wrong matrix, not a
// wrong-by-epsilon float. Every reduction collective is checked against a
// sequential rank-order reference, across rank counts, payload sizes
// straddling both the shared-memory engine's small_threshold (1KB) and the
// p2p eager threshold (8KB), every root, and both the shared-memory and
// p2p paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "check/explorer.hpp"
#include "mpi/coll_algo.hpp"
#include "mpi/coll_shm.hpp"
#include "mpi/runtime.hpp"
#include "topo/topology.hpp"

namespace check = hlsmpc::check;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
namespace topo = hlsmpc::topo;
using hlsmpc::ult::TaskContext;

namespace {

// ---- the non-commutative operator ----

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

/// Rank r's deterministic contribution for element i.
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

/// Rank-order fold of ranks [0, upto]: v_0 * v_1 * ... * v_upto.
std::vector<Mat> reference(int upto, std::size_t count) {
  std::vector<Mat> ref = make_contrib(0, count);
  for (int r = 1; r <= upto; ++r) {
    for (std::size_t i = 0; i < count; ++i) ref[i] = mul(ref[i], contrib(r, i));
  }
  return ref;
}

// Payload sizes (in Mat elements, 16 bytes each) straddling the engine's
// small_threshold (1024 B: 60 -> 960 B flat path, 65 -> 1040 B
// hierarchical path) and the p2p eager threshold (8 KB: 520 -> 8320 B
// rendezvous on the p2p path).
constexpr std::size_t kCounts[] = {1, 60, 65, 520};

struct Param {
  int nranks;
  mpi::ExecutorKind exec;
  bool shm;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::to_string(info.param.nranks) + "ranks_" +
         (info.param.exec == mpi::ExecutorKind::thread ? "thread" : "fiber") +
         (info.param.shm ? "_shm" : "_p2p");
}

mpi::Options opts(const Param& p) {
  mpi::Options o;
  o.nranks = p.nranks;
  o.executor = p.exec;
  o.coll.enable_shm = p.shm;
  return o;
}

class CollParam : public testing::TestWithParam<Param> {
 protected:
  topo::Machine machine_ = topo::Machine::nehalem_ex(2);
  mpi::Runtime rt_{machine_, opts(GetParam())};
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollParam,
    testing::Values(Param{1, mpi::ExecutorKind::thread, true},
                    Param{2, mpi::ExecutorKind::thread, true},
                    Param{3, mpi::ExecutorKind::thread, true},
                    Param{5, mpi::ExecutorKind::thread, true},
                    Param{8, mpi::ExecutorKind::thread, true},
                    Param{13, mpi::ExecutorKind::thread, true},
                    Param{16, mpi::ExecutorKind::thread, true},
                    Param{2, mpi::ExecutorKind::thread, false},
                    Param{5, mpi::ExecutorKind::thread, false},
                    Param{16, mpi::ExecutorKind::thread, false},
                    Param{4, mpi::ExecutorKind::fiber, true},
                    Param{16, mpi::ExecutorKind::fiber, true},
                    Param{7, mpi::ExecutorKind::fiber, false}),
    param_name);

TEST(CollOp, MatrixMultiplyIsNotCommutative) {
  // The sweep below is only meaningful if operand order is observable.
  const Mat x = contrib(0, 0);
  const Mat y = contrib(1, 0);
  EXPECT_NE(mul(x, y), mul(y, x));
}

TEST(CollAlgo, DisseminationPeersAreExactMirrors) {
  // Pins the precedence fix: the old `(me - step % n + n) % n` spelling
  // must never come back. Every send target's receive source is the
  // sender, at every power-of-two step, for every communicator size.
  for (int n = 1; n <= 64; ++n) {
    for (int step = 1; step < n; step <<= 1) {
      for (int me = 0; me < n; ++me) {
        const int dst = mpi::coll::dissemination_dst(me, step, n);
        const int src = mpi::coll::dissemination_src(me, step, n);
        EXPECT_EQ(mpi::coll::dissemination_src(dst, step, n), me);
        EXPECT_EQ(mpi::coll::dissemination_dst(src, step, n), me);
      }
    }
  }
}

namespace {

/// In-memory endpoint for driving the coll_algo.hpp schedules without a
/// runtime: one FIFO per (src, dst) pair of positions, blocking receive,
/// and a per-position send count.
class Mailboxes {
 public:
  explicit Mailboxes(int n)
      : n_(n),
        q_(static_cast<std::size_t>(n * n)),
        sent_(static_cast<std::size_t>(n), 0) {}

  bool send(int src, int dst, const void* buf, std::size_t bytes) {
    const auto* b = static_cast<const std::byte*>(buf);
    std::lock_guard<std::mutex> lk(mu_);
    q_[idx(src, dst)].emplace_back(b, b + bytes);
    ++sent_[static_cast<std::size_t>(src)];
    cv_.notify_all();
    return true;
  }
  bool recv(int src, int dst, void* buf, std::size_t bytes) {
    std::unique_lock<std::mutex> lk(mu_);
    auto& q = q_[idx(src, dst)];
    cv_.wait(lk, [&] { return !q.empty(); });
    const bool fits = q.front().size() == bytes;
    if (fits && bytes > 0) std::memcpy(buf, q.front().data(), bytes);
    q.pop_front();
    return fits;
  }
  int sent(int pos) const { return sent_[static_cast<std::size_t>(pos)]; }
  bool drained() const {
    for (const auto& q : q_) {
      if (!q.empty()) return false;
    }
    return true;
  }

 private:
  std::size_t idx(int src, int dst) const {
    return static_cast<std::size_t>(src * n_ + dst);
  }
  int n_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::vector<std::byte>>> q_;
  std::vector<int> sent_;
};

/// Runs body(pos) on one thread per position of [0, n).
template <typename Body>
void on_positions(int n, Body body) {
  std::vector<std::thread> ts;
  for (int p = 0; p < n; ++p) ts.emplace_back([&body, p] { body(p); });
  for (auto& t : ts) t.join();
}

}  // namespace

TEST(CollAlgo, OrderedFoldIsTheAscendingFoldAtEverySize) {
  constexpr std::size_t kCount = 3;
  constexpr std::size_t kBytes = kCount * sizeof(Mat);
  for (int n = 1; n <= 64; ++n) {
    Mailboxes mb(n);
    std::vector<std::vector<Mat>> acc(static_cast<std::size_t>(n));
    std::atomic<int> not_ok{0};
    on_positions(n, [&](int pos) {
      std::vector<Mat>& mine = acc[static_cast<std::size_t>(pos)];
      mine = make_contrib(pos, kCount);
      std::vector<Mat> scratch(kCount);
      const bool ok = mpi::coll::ordered_fold(
          pos, n, mine.data(), scratch.data(), kCount, mat_fn(),
          [&](int peer) { return mb.send(pos, peer, mine.data(), kBytes); },
          [&](int peer) {
            return mb.recv(peer, pos, scratch.data(), kBytes);
          });
      if (!ok) ++not_ok;
    });
    EXPECT_EQ(not_ok.load(), 0) << "n=" << n;
    EXPECT_EQ(acc[0], reference(n - 1, kCount)) << "n=" << n;
    EXPECT_EQ(mb.sent(0), 0) << "n=" << n;
    for (int p = 1; p < n; ++p) {
      EXPECT_EQ(mb.sent(p), 1) << "n=" << n << " pos=" << p;
    }
    EXPECT_TRUE(mb.drained()) << "n=" << n;
  }
}

TEST(CollAlgo, BinomialBcastReachesEveryPositionFromEveryRoot) {
  constexpr std::size_t kCount = 3;
  constexpr std::size_t kBytes = kCount * sizeof(Mat);
  for (int n = 1; n <= 64; ++n) {
    std::vector<int> roots;
    if (n <= 16) {
      roots.resize(static_cast<std::size_t>(n));
      std::iota(roots.begin(), roots.end(), 0);
    } else {
      roots = {0, n / 2, n - 1};
    }
    for (int root : roots) {
      Mailboxes mb(n);
      const std::vector<Mat> payload = make_contrib(1000 + root, kCount);
      std::vector<std::vector<Mat>> buf(static_cast<std::size_t>(n));
      std::atomic<int> not_ok{0};
      on_positions(n, [&](int pos) {
        std::vector<Mat>& mine = buf[static_cast<std::size_t>(pos)];
        mine = pos == root ? payload : std::vector<Mat>(kCount);
        const bool ok = mpi::coll::binomial_bcast(
            pos, n, root,
            [&](int peer) { return mb.send(pos, peer, mine.data(), kBytes); },
            [&](int peer) { return mb.recv(peer, pos, mine.data(), kBytes); });
        if (!ok) ++not_ok;
      });
      EXPECT_EQ(not_ok.load(), 0) << "n=" << n << " root=" << root;
      int sends = 0;
      for (int p = 0; p < n; ++p) {
        EXPECT_EQ(buf[static_cast<std::size_t>(p)], payload)
            << "n=" << n << " root=" << root << " pos=" << p;
        sends += mb.sent(p);
      }
      EXPECT_EQ(sends, n - 1) << "n=" << n << " root=" << root;
      EXPECT_TRUE(mb.drained()) << "n=" << n << " root=" << root;
    }
  }
}

TEST(CollAlgo, FailedExchangeIsSkippedRecordedAndPushedPast) {
  // The containment contract: a failed receive skips its fold but the
  // schedule keeps going, and the result reports not-ok. Position 0 of 8
  // hears from 1, 2 and 4 (ranges [1], [2,3], [4,7]); dropping 2 leaves
  // v_0 v_1 v_4..v_7.
  constexpr std::size_t kCount = 2;
  std::vector<Mat> acc = make_contrib(0, kCount);
  std::vector<Mat> scratch(kCount);
  std::vector<int> heard;
  const auto range = [&](int lo, int hi) {
    std::vector<Mat> r = make_contrib(lo, kCount);
    for (int q = lo + 1; q <= hi; ++q) {
      for (std::size_t i = 0; i < kCount; ++i) r[i] = mul(r[i], contrib(q, i));
    }
    return r;
  };
  const bool ok = mpi::coll::ordered_fold(
      0, 8, acc.data(), scratch.data(), kCount, mat_fn(),
      [](int) { return true; },
      [&](int peer) {
        heard.push_back(peer);
        const std::vector<Mat> partial = range(peer, 2 * peer - 1);
        std::copy(partial.begin(), partial.end(), scratch.begin());
        return peer != 2;
      });
  EXPECT_FALSE(ok);
  EXPECT_EQ(heard, (std::vector<int>{1, 2, 4}));
  std::vector<Mat> want = range(0, 1);
  const std::vector<Mat> tail = range(4, 7);
  for (std::size_t i = 0; i < kCount; ++i) want[i] = mul(want[i], tail[i]);
  EXPECT_EQ(acc, want);

  // bcast: a failed receive from the parent still forwards to the
  // children (they must not be stranded) and reports not-ok.
  std::vector<int> sent_to;
  const bool bok = mpi::coll::binomial_bcast(
      2, 8, 0,
      [&](int peer) {
        sent_to.push_back(peer);
        return true;
      },
      [](int) { return false; });
  EXPECT_FALSE(bok);
  EXPECT_EQ(sent_to, (std::vector<int>{3}));
}

TEST(CollP2pTraffic, AllreduceAndBarrierMessageCounts) {
  // Pins the p2p schedules' traffic: with the shm engine off, allreduce
  // is a binomial reduce plus a binomial bcast (n-1 messages each) and
  // the barrier is ceil(log2 n) dissemination rounds per rank.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  for (int n : {2, 3, 5, 8, 13}) {
    mpi::Options o;
    o.nranks = n;
    o.coll.enable_shm = false;
    mpi::Runtime rt(m, o);
    int rounds = 0;
    while ((1 << rounds) < n) ++rounds;

    std::uint64_t m0 = rt.stats().messages.load();
    rt.run([&](mpi::Comm& world, TaskContext& ctx) {
      const std::vector<Mat> in = make_contrib(world.rank(ctx), 4);
      std::vector<Mat> out(4);
      world.allreduce(ctx, in.data(), out.data(), 4, sizeof(Mat), mat_fn());
    });
    EXPECT_EQ(rt.stats().messages.load() - m0,
              static_cast<std::uint64_t>(2 * (n - 1)))
        << "allreduce n=" << n;

    m0 = rt.stats().messages.load();
    rt.run([&](mpi::Comm& world, TaskContext& ctx) { world.barrier(ctx); });
    EXPECT_EQ(rt.stats().messages.load() - m0,
              static_cast<std::uint64_t>(n * rounds))
        << "barrier n=" << n;
  }
}

TEST_P(CollParam, NonCommutativeReduceEveryRoot) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kCounts) {
      const std::vector<Mat> ref = reference(n - 1, count);
      for (int root = 0; root < n; ++root) {
        const std::vector<Mat> in = make_contrib(me, count);
        std::vector<Mat> out(count, Mat{-1, -1, -1, -1});
        world.reduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn(),
                     root);
        if (me == root && out != ref) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, NonCommutativeAllreduce) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kCounts) {
      const std::vector<Mat> ref = reference(n - 1, count);
      const std::vector<Mat> in = make_contrib(me, count);
      std::vector<Mat> out(count);
      world.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                      mat_fn());
      if (out != ref) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, NonCommutativeScan) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kCounts) {
      const std::vector<Mat> ref = reference(me, count);
      const std::vector<Mat> in = make_contrib(me, count);
      std::vector<Mat> out(count);
      world.scan(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
      if (out != ref) ++bad;
    }
    (void)n;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, NonCommutativeExscan) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kCounts) {
      const std::vector<Mat> in = make_contrib(me, count);
      const Mat sentinel{-7, -7, -7, -7};
      std::vector<Mat> out(count, sentinel);
      world.exscan(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
      if (me == 0) {
        // MPI_Exscan: rank 0's recvbuf is undefined — ours stays untouched.
        for (const Mat& m : out) {
          if (m != sentinel) ++bad;
        }
      } else {
        if (out != reference(me - 1, count)) ++bad;
      }
    }
    (void)n;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, NonCommutativeReduceScatterBlock) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : {std::size_t{3}, std::size_t{130}}) {
      const std::size_t total = count * static_cast<std::size_t>(n);
      const std::vector<Mat> ref = reference(n - 1, total);
      const std::vector<Mat> in = make_contrib(me, total);
      std::vector<Mat> out(count);
      world.reduce_scatter_block(ctx, in.data(), out.data(), count,
                                 sizeof(Mat), mat_fn());
      for (std::size_t i = 0; i < count; ++i) {
        if (out[i] != ref[static_cast<std::size_t>(me) * count + i]) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, InPlaceAliasedBuffers) {
  // recvbuf == sendbuf for the ops whose engines stage or sequence around
  // aliasing. The staged scan/exscan snapshot is exactly what makes the
  // shared-memory path safe here.
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kCounts) {
      std::vector<Mat> buf = make_contrib(me, count);
      world.allreduce(ctx, buf.data(), buf.data(), count, sizeof(Mat),
                      mat_fn());
      if (buf != reference(n - 1, count)) ++bad;

      buf = make_contrib(me, count);
      world.scan(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn());
      if (buf != reference(me, count)) ++bad;

      buf = make_contrib(me, count);
      world.exscan(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn());
      if (me > 0 && buf != reference(me - 1, count)) ++bad;

      buf = make_contrib(me, count);
      world.reduce(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn(),
                   0);
      if (me == 0 && buf != reference(n - 1, count)) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, BcastEveryRootEverySize) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (const std::size_t bytes : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{1048}, std::size_t{9000}}) {
      for (int root = 0; root < n; ++root) {
        std::vector<std::byte> buf(bytes);
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = (me == root)
                       ? static_cast<std::byte>((i + 7 * root) % 251)
                       : std::byte{0xee};
        }
        world.bcast(ctx, buf.data(), bytes, root);
        for (std::size_t i = 0; i < bytes; ++i) {
          if (buf[i] != static_cast<std::byte>((i + 7 * root) % 251)) ++bad;
        }
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, AllgatherAlltoall) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (const std::size_t words : {std::size_t{1}, std::size_t{400}}) {
      // allgather: everyone contributes a block tagged with its rank.
      std::vector<std::uint32_t> in(words,
                                    static_cast<std::uint32_t>(me + 1));
      std::vector<std::uint32_t> all(words * static_cast<std::size_t>(n));
      world.allgather(ctx, in.data(), words * sizeof(std::uint32_t),
                      all.data());
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < words; ++i) {
          if (all[static_cast<std::size_t>(r) * words + i] !=
              static_cast<std::uint32_t>(r + 1)) {
            ++bad;
          }
        }
      }
      // alltoall: block (me -> r) carries me * 1000 + r.
      std::vector<std::uint32_t> out(words * static_cast<std::size_t>(n));
      std::vector<std::uint32_t> send(words * static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < words; ++i) {
          send[static_cast<std::size_t>(r) * words + i] =
              static_cast<std::uint32_t>(me * 1000 + r);
        }
      }
      world.alltoall(ctx, send.data(), words * sizeof(std::uint32_t),
                     out.data());
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < words; ++i) {
          if (out[static_cast<std::size_t>(r) * words + i] !=
              static_cast<std::uint32_t>(r * 1000 + me)) {
            ++bad;
          }
        }
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, ZeroSizeCollectivesKeepSequenceLockstep) {
  // Zero-byte/zero-count calls are no-ops but still advance the engine's
  // publication sequence on every rank; a real collective after a burst of
  // them must still line up.
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    world.bcast(ctx, nullptr, 0, 0);
    std::vector<Mat> empty;
    world.allreduce(ctx, empty.data(), empty.data(), 0, sizeof(Mat),
                    mat_fn());
    world.scan(ctx, empty.data(), empty.data(), 0, sizeof(Mat), mat_fn());
    const std::vector<Mat> in = make_contrib(me, 8);
    std::vector<Mat> out(8);
    world.allreduce(ctx, in.data(), out.data(), 8, sizeof(Mat), mat_fn());
    if (out != reference(n - 1, 8)) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, BarrierPhases) {
  // Back-to-back barriers stress the hierarchical episode machinery — in
  // particular the wide-to-narrow release order that keeps a fresh arrival
  // off a still-claimed group.
  const int n = GetParam().nranks;
  constexpr int kPhases = 64;
  std::vector<std::atomic<int>> phase(kPhases);
  for (auto& p : phase) p.store(0);
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    for (int k = 0; k < kPhases; ++k) {
      phase[static_cast<std::size_t>(k)].fetch_add(1,
                                                   std::memory_order_relaxed);
      world.barrier(ctx);
      if (phase[static_cast<std::size_t>(k)].load(
              std::memory_order_relaxed) != n) {
        ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollParam, SplitCommunicatorsReduceCorrectly) {
  // split() hands every child communicator its own engine; odd/even colors
  // pin the children onto interleaved cpus, exercising the degenerate
  // (non-contiguous) leader tree.
  const int n = GetParam().nranks;
  if (n < 3) GTEST_SKIP();
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    mpi::Comm& sub = world.split(ctx, me % 2, me);
    const int sub_n = sub.size();
    const int sub_me = sub.rank(ctx);
    for (std::size_t count : {std::size_t{4}, std::size_t{200}}) {
      const std::vector<Mat> in = make_contrib(sub_me, count);
      std::vector<Mat> out(count);
      sub.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
      if (out != reference(sub_n - 1, count)) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

// ---- pipelined large-message path ----
//
// A dedicated sweep drives the shm_pipelined selector arm with a shrunken
// config (1KB small threshold, 4KB pipeline threshold, 2KB fragments =
// 128 Mats per fragment) so modest payloads run real multi-fragment
// pipelines. Counts straddle every fragment boundary: 256 Mats = 4096 B
// sits exactly ON the pipeline threshold (still monolithic zero-copy),
// 257 crosses it, 384/385 and 512/513 straddle the third and fourth
// fragment boundaries, 1000 ends in a short tail fragment.

namespace {

constexpr std::size_t kPipeCounts[] = {256, 257, 384, 385, 512, 513, 1000};

struct PipeParam {
  int nranks;
  mpi::ExecutorKind exec;
};

std::string pipe_param_name(const testing::TestParamInfo<PipeParam>& info) {
  return std::to_string(info.param.nranks) + "ranks_" +
         (info.param.exec == mpi::ExecutorKind::thread ? "thread" : "fiber");
}

mpi::Options pipe_opts(const PipeParam& p) {
  mpi::Options o;
  o.nranks = p.nranks;
  o.executor = p.exec;
  o.coll.small_threshold = 1024;
  o.coll.pipeline_threshold = 4096;
  o.coll.fragment_bytes = 2048;
  return o;
}

class CollPipelined : public testing::TestWithParam<PipeParam> {
 protected:
  topo::Machine machine_ = topo::Machine::nehalem_ex(2);
  mpi::Runtime rt_{machine_, pipe_opts(GetParam())};
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollPipelined,
    testing::Values(PipeParam{2, mpi::ExecutorKind::thread},
                    PipeParam{3, mpi::ExecutorKind::thread},
                    PipeParam{5, mpi::ExecutorKind::thread},
                    PipeParam{8, mpi::ExecutorKind::thread},
                    PipeParam{13, mpi::ExecutorKind::thread},
                    PipeParam{16, mpi::ExecutorKind::thread},
                    PipeParam{4, mpi::ExecutorKind::fiber},
                    PipeParam{16, mpi::ExecutorKind::fiber}),
    pipe_param_name);

TEST_P(CollPipelined, NonCommutativeAllreduceAcrossFragmentBoundaries) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kPipeCounts) {
      const std::vector<Mat> ref = reference(n - 1, count);
      const std::vector<Mat> in = make_contrib(me, count);
      std::vector<Mat> out(count);
      world.allreduce(ctx, in.data(), out.data(), count, sizeof(Mat),
                      mat_fn());
      if (out != ref) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollPipelined, NonCommutativeReduceEveryRoot) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : {std::size_t{257}, std::size_t{513}}) {
      const std::vector<Mat> ref = reference(n - 1, count);
      for (int root = 0; root < n; ++root) {
        const std::vector<Mat> in = make_contrib(me, count);
        std::vector<Mat> out(count, Mat{-1, -1, -1, -1});
        world.reduce(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn(),
                     root);
        if (me == root && out != ref) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollPipelined, NonCommutativeScanExscan) {
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : kPipeCounts) {
      const std::vector<Mat> in = make_contrib(me, count);
      std::vector<Mat> out(count);
      world.scan(ctx, in.data(), out.data(), count, sizeof(Mat), mat_fn());
      if (out != reference(me, count)) ++bad;

      const Mat sentinel{-7, -7, -7, -7};
      std::vector<Mat> ex(count, sentinel);
      world.exscan(ctx, in.data(), ex.data(), count, sizeof(Mat), mat_fn());
      if (me == 0) {
        for (const Mat& m : ex) {
          if (m != sentinel) ++bad;
        }
      } else if (ex != reference(me - 1, count)) {
        ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollPipelined, NonCommutativeReduceScatterBlock) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : {std::size_t{129}, std::size_t{200}}) {
      const std::size_t total = count * static_cast<std::size_t>(n);
      const std::vector<Mat> ref = reference(n - 1, total);
      const std::vector<Mat> in = make_contrib(me, total);
      std::vector<Mat> out(count);
      world.reduce_scatter_block(ctx, in.data(), out.data(), count,
                                 sizeof(Mat), mat_fn());
      for (std::size_t i = 0; i < count; ++i) {
        if (out[i] != ref[static_cast<std::size_t>(me) * count + i]) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollPipelined, BcastAllgatherAcrossFragmentBoundaries) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (const std::size_t bytes :
         {std::size_t{4097}, std::size_t{6144}, std::size_t{6145},
          std::size_t{16000}}) {
      for (int root : {0, n - 1}) {
        std::vector<std::byte> buf(bytes);
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = (me == root)
                       ? static_cast<std::byte>((i + 7 * root) % 251)
                       : std::byte{0xee};
        }
        world.bcast(ctx, buf.data(), bytes, root);
        for (std::size_t i = 0; i < bytes; ++i) {
          if (buf[i] != static_cast<std::byte>((i + 7 * root) % 251)) ++bad;
        }
      }
      std::vector<std::uint8_t> in(bytes, static_cast<std::uint8_t>(me + 1));
      std::vector<std::uint8_t> all(bytes * static_cast<std::size_t>(n));
      world.allgather(ctx, in.data(), bytes, all.data());
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < bytes; ++i) {
          if (all[static_cast<std::size_t>(r) * bytes + i] !=
              static_cast<std::uint8_t>(r + 1)) {
            ++bad;
          }
        }
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(CollPipelined, InPlaceAliasedBuffers) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (std::size_t count : {std::size_t{257}, std::size_t{513}}) {
      std::vector<Mat> buf = make_contrib(me, count);
      world.allreduce(ctx, buf.data(), buf.data(), count, sizeof(Mat),
                      mat_fn());
      if (buf != reference(n - 1, count)) ++bad;

      buf = make_contrib(me, count);
      world.scan(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn());
      if (buf != reference(me, count)) ++bad;

      buf = make_contrib(me, count);
      world.exscan(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn());
      if (me > 0 && buf != reference(me - 1, count)) ++bad;

      buf = make_contrib(me, count);
      world.reduce(ctx, buf.data(), buf.data(), count, sizeof(Mat), mat_fn(),
                   0);
      if (me == 0 && buf != reference(n - 1, count)) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

// ---- selector boundaries ----
//
// In-place aliasing and zero-count calls at exactly small_threshold,
// small_threshold + 1, pipeline_threshold and pipeline_threshold + 1
// bytes, with a shrunken config (256 B / 1KB, 512 B fragments) so both
// edges sit within quick payloads. Zero-count calls are interleaved
// between the sized ones, so a boundary-size collective right after a
// no-op burst proves the sequence/fragment lockstep holds on every arm.

namespace {

mpi::ReduceFn u8_sum() {
  return [](void* inout, const void* in, std::size_t count) {
    auto* a = static_cast<std::uint8_t*>(inout);
    const auto* b = static_cast<const std::uint8_t*>(in);
    for (std::size_t i = 0; i < count; ++i) {
      a[i] = static_cast<std::uint8_t>(a[i] + b[i]);
    }
  };
}

std::uint8_t u8_contrib(int r, std::size_t i) {
  return static_cast<std::uint8_t>((static_cast<std::size_t>(r) * 31 + i) %
                                   256);
}

mpi::Options boundary_opts(const PipeParam& p) {
  mpi::Options o;
  o.nranks = p.nranks;
  o.executor = p.exec;
  o.coll.small_threshold = 256;
  o.coll.pipeline_threshold = 1024;
  o.coll.fragment_bytes = 512;
  return o;
}

class CollSelectorBoundary : public testing::TestWithParam<PipeParam> {
 protected:
  topo::Machine machine_ = topo::Machine::nehalem_ex(2);
  mpi::Runtime rt_{machine_, boundary_opts(GetParam())};
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollSelectorBoundary,
    testing::Values(PipeParam{1, mpi::ExecutorKind::thread},
                    PipeParam{2, mpi::ExecutorKind::thread},
                    PipeParam{3, mpi::ExecutorKind::thread},
                    PipeParam{5, mpi::ExecutorKind::thread},
                    PipeParam{8, mpi::ExecutorKind::thread},
                    PipeParam{13, mpi::ExecutorKind::thread},
                    PipeParam{16, mpi::ExecutorKind::thread},
                    PipeParam{1, mpi::ExecutorKind::fiber},
                    PipeParam{4, mpi::ExecutorKind::fiber},
                    PipeParam{16, mpi::ExecutorKind::fiber}),
    pipe_param_name);

TEST_P(CollSelectorBoundary, InPlaceAndZeroCountAtEveryThresholdEdge) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    std::vector<std::uint8_t> empty;
    for (const std::size_t bytes : {std::size_t{256}, std::size_t{257},
                                    std::size_t{1024}, std::size_t{1025}}) {
      // Zero-count no-ops on either side of every sized call.
      world.allreduce(ctx, empty.data(), empty.data(), 0, 1, u8_sum());
      world.bcast(ctx, empty.data(), 0, 0);

      // In-place allreduce at the exact boundary size.
      std::vector<std::uint8_t> buf(bytes);
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = u8_contrib(me, i);
      world.allreduce(ctx, buf.data(), buf.data(), bytes, 1, u8_sum());
      for (std::size_t i = 0; i < bytes; ++i) {
        std::uint8_t want = 0;
        for (int r = 0; r < n; ++r) {
          want = static_cast<std::uint8_t>(want + u8_contrib(r, i));
        }
        if (buf[i] != want) ++bad;
      }

      world.scan(ctx, empty.data(), empty.data(), 0, 1, u8_sum());

      // In-place scan at the same size.
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = u8_contrib(me, i);
      world.scan(ctx, buf.data(), buf.data(), bytes, 1, u8_sum());
      for (std::size_t i = 0; i < bytes; ++i) {
        std::uint8_t want = 0;
        for (int r = 0; r <= me; ++r) {
          want = static_cast<std::uint8_t>(want + u8_contrib(r, i));
        }
        if (buf[i] != want) ++bad;
      }

      // Separate-buffer reduce to the highest rank at the boundary size.
      std::vector<std::uint8_t> in(bytes);
      for (std::size_t i = 0; i < bytes; ++i) in[i] = u8_contrib(me, i);
      std::vector<std::uint8_t> out(bytes, 0xa5);
      world.reduce(ctx, in.data(), out.data(), bytes, 1, u8_sum(), n - 1);
      if (me == n - 1) {
        for (std::size_t i = 0; i < bytes; ++i) {
          std::uint8_t want = 0;
          for (int r = 0; r < n; ++r) {
            want = static_cast<std::uint8_t>(want + u8_contrib(r, i));
          }
          if (out[i] != want) ++bad;
        }
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CollShmEngine, AttachesAndFollowsTopology) {
  // nehalem_ex(2): 2 sockets x 8 cores, one rank per cpu. The leader tree
  // must pick up the shared-cache level (two groups of 8) below the node
  // root; every level partitions the ranks into ascending contiguous runs.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  mpi::Options o;
  o.nranks = 16;
  mpi::Runtime rt(m, o);
  mpi::ShmCollEngine* eng = rt.world().shm_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->size(), 16);
  ASSERT_GE(eng->num_levels(), 2);

  const auto leaf = eng->level_groups(0);
  EXPECT_GT(leaf.size(), 1u);
  int expect = 0;
  for (const auto& g : leaf) {
    ASSERT_FALSE(g.empty());
    for (int r : g) EXPECT_EQ(r, expect++);  // ascending, contiguous runs
  }
  EXPECT_EQ(expect, 16);

  const auto top = eng->level_groups(eng->num_levels() - 1);
  EXPECT_EQ(top.size(), 1u);          // single root group
  EXPECT_EQ(top.front().front(), 0);  // led by rank 0
}

TEST(CollShmEngine, ConfigDisablesEngine) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  mpi::Options o;
  o.nranks = 4;
  o.coll.enable_shm = false;
  mpi::Runtime rt(m, o);
  EXPECT_EQ(rt.world().shm_engine(), nullptr);
}

TEST(CollShmEngine, SingleCopyBcastStats) {
  // A B-byte bcast to n ranks through the engine moves exactly (n-1)*B
  // bytes — each non-root copies once, straight out of the root's buffer —
  // and sends zero mailbox messages.
  topo::Machine m = topo::Machine::nehalem_ex(1);
  mpi::Options o;
  o.nranks = 8;
  mpi::Runtime rt(m, o);
  ASSERT_NE(rt.world().shm_engine(), nullptr);
  const std::uint64_t copied0 =
      rt.stats().shm_copied_bytes.load(std::memory_order_relaxed);
  const std::uint64_t msgs0 = rt.stats().messages.load();
  constexpr std::size_t kBytes = 4096;
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    std::vector<std::byte> buf(kBytes, std::byte{1});
    world.bcast(ctx, buf.data(), kBytes, 3);
  });
  EXPECT_EQ(rt.stats().shm_copied_bytes.load(std::memory_order_relaxed) -
                copied0,
            7 * kBytes);
  EXPECT_EQ(rt.stats().messages.load() - msgs0, 0u);
  EXPECT_EQ(rt.stats().shm_collectives.load(std::memory_order_relaxed), 8u);
}

TEST(CollShmEngine, WrappedPinningDegradesToFlatTree) {
  // More ranks than cpus: rank pinning wraps, scope instances repeat in
  // rank order, and every topology level is rejected as non-contiguous —
  // leaving the single-level (flat) catch-all, which must still be exact.
  topo::Machine m = topo::Machine::generic(1, 2);  // 2 cpus
  mpi::Options o;
  o.nranks = 5;
  mpi::Runtime rt(m, o);
  mpi::ShmCollEngine* eng = rt.world().shm_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->num_levels(), 1);
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const std::vector<Mat> in = make_contrib(me, 32);
    std::vector<Mat> out(32);
    world.allreduce(ctx, in.data(), out.data(), 32, sizeof(Mat), mat_fn());
    if (out != reference(4, 32)) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CollShmEngine, SelectorArmsAndFragmentGeometry) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  mpi::TransportStats stats;
  mpi::CollConfig cfg;
  cfg.small_threshold = 1024;
  cfg.pipeline_threshold = 4096;
  cfg.fragment_bytes = 2048;
  mpi::ShmCollEngine eng(m, {0, 1}, cfg, &stats);
  EXPECT_EQ(eng.select(0), obs::CollAlg::shm_flat);
  EXPECT_EQ(eng.select(1024), obs::CollAlg::shm_flat);
  EXPECT_EQ(eng.select(1025), obs::CollAlg::shm_hier);
  EXPECT_EQ(eng.select(4096), obs::CollAlg::shm_hier);
  EXPECT_EQ(eng.select(4097), obs::CollAlg::shm_pipelined);
  // Geometry is pure in (count, elem_bytes, config): 2048-byte fragments
  // of 16-byte elements hold 128 elements, and a one-past-boundary count
  // gets a short tail fragment.
  const auto g = eng.frag_geom(257, 16);
  EXPECT_EQ(g.frag_elems, 128u);
  EXPECT_EQ(g.nfrags, 3u);
  const auto whole = eng.frag_geom(256, 16);
  EXPECT_EQ(whole.nfrags, 2u);
  // Oversized elements get one element per fragment instead of zero.
  const auto big = eng.frag_geom(3, 64 * 1024);
  EXPECT_EQ(big.frag_elems, 1u);
  EXPECT_EQ(big.nfrags, 3u);
}

TEST(CollShmEngine, NeverPipelineThresholdKeepsTwoWaySelector) {
  // pipeline_threshold = SIZE_MAX (env HLSMPC_COLL_PIPELINE_THRESHOLD=0)
  // is the never-pipeline setting: no payload is strictly above it, so
  // everything past the staged arm reads zero-copy.
  topo::Machine m = topo::Machine::nehalem_ex(1);
  mpi::TransportStats stats;
  mpi::CollConfig cfg;
  cfg.small_threshold = 1024;
  cfg.pipeline_threshold = std::numeric_limits<std::size_t>::max();
  mpi::ShmCollEngine eng(m, {0, 1}, cfg, &stats);
  EXPECT_EQ(eng.select(1024), obs::CollAlg::shm_flat);
  EXPECT_EQ(eng.select(4097), obs::CollAlg::shm_hier);
  EXPECT_EQ(eng.select(std::size_t{1} << 30), obs::CollAlg::shm_hier);
}

TEST(CollShmEngine, PipelinedStatsCountCallsAndFragments) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  mpi::Options o;
  o.nranks = 8;
  o.coll.pipeline_threshold = 4096;
  o.coll.fragment_bytes = 2048;
  mpi::Runtime rt(m, o);
  ASSERT_NE(rt.world().shm_engine(), nullptr);
  constexpr std::size_t kCount = 1000;  // 16000 B: pipelined, 8 fragments
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const std::vector<Mat> in = make_contrib(me, kCount);
    std::vector<Mat> out(kCount);
    world.allreduce(ctx, in.data(), out.data(), kCount, sizeof(Mat),
                    mat_fn());
    if (out != reference(7, kCount)) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(
      rt.stats().shm_pipelined_collectives.load(std::memory_order_relaxed),
      8u);
  // Every rank publishes its 8 fragments on one channel or the other
  // (contributions for non-leaders, accumulator fragments for leaders), so
  // the fragment count is exactly ranks x fragments.
  EXPECT_EQ(rt.stats().shm_fragments.load(std::memory_order_relaxed), 64u);
}

TEST(CollShmEngine, RegistrationCacheReusesResolvedBuffers) {
  // scan stages every rank's send buffer through its registration, so the
  // hit/miss counters are exact: one miss per (rank, buffer), hits after.
  topo::Machine m = topo::Machine::generic(1, 4);
  mpi::TransportStats stats;
  mpi::CollConfig cfg;
  cfg.small_threshold = 64;
  cfg.pipeline_threshold = 128;
  cfg.fragment_bytes = 128;
  mpi::ShmCollEngine eng(m, {0, 1}, cfg, &stats);
  constexpr std::size_t kCount = 64;  // 256 B of u32: pipelined, 2 frags
  auto fn = [](void* inout, const void* in, std::size_t count) {
    auto* a = static_cast<std::uint32_t*>(inout);
    const auto* b = static_cast<const std::uint32_t*>(in);
    for (std::size_t i = 0; i < count; ++i) a[i] += b[i];
  };
  std::array<std::vector<std::uint32_t>, 2> in;
  std::array<std::vector<std::uint32_t>, 2> out;
  for (int r = 0; r < 2; ++r) {
    in[static_cast<std::size_t>(r)].assign(kCount,
                                           static_cast<std::uint32_t>(r + 1));
    out[static_cast<std::size_t>(r)].resize(kCount);
  }
  std::vector<int> pins{0, 1};
  {
    check::RoundRobinPolicy policy(1, 0);
    check::DeterministicExecutor ex(policy);
    ex.run(2, pins, [&](TaskContext& ctx) {
      const auto me = static_cast<std::size_t>(ctx.task_id());
      for (int iter = 0; iter < 4; ++iter) {
        eng.scan(ctx, ctx.task_id(), in[me].data(), out[me].data(), kCount,
                 sizeof(std::uint32_t), fn);
      }
    });
  }
  EXPECT_EQ(stats.reg_cache_misses.load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(stats.reg_cache_hits.load(std::memory_order_relaxed), 6u);
  EXPECT_EQ(out[1][0], 3u);  // 1 + 2: the data still reduces correctly

  // Migration invalidates: entries are tagged with the CPU they were
  // resolved on, so a rank that moved re-resolves (miss) and re-caches.
  {
    check::RoundRobinPolicy policy(1, 0);
    check::DeterministicExecutor ex(policy);
    ex.run(2, pins, [&](TaskContext& ctx) {
      const auto me = static_cast<std::size_t>(ctx.task_id());
      ctx.set_cpu(ctx.task_id() + 2);  // simulate a migrate/re-pin
      for (int iter = 0; iter < 2; ++iter) {
        eng.scan(ctx, ctx.task_id(), in[me].data(), out[me].data(), kCount,
                 sizeof(std::uint32_t), fn);
      }
    });
  }
  EXPECT_EQ(stats.reg_cache_misses.load(std::memory_order_relaxed), 4u);
  EXPECT_EQ(stats.reg_cache_hits.load(std::memory_order_relaxed), 8u);

  // The explicit flush hook drops every rank's entries.
  eng.invalidate_registrations();
  {
    check::RoundRobinPolicy policy(1, 0);
    check::DeterministicExecutor ex(policy);
    ex.run(2, pins, [&](TaskContext& ctx) {
      const auto me = static_cast<std::size_t>(ctx.task_id());
      ctx.set_cpu(ctx.task_id() + 2);
      eng.scan(ctx, ctx.task_id(), in[me].data(), out[me].data(), kCount,
               sizeof(std::uint32_t), fn);
    });
  }
  EXPECT_EQ(stats.reg_cache_misses.load(std::memory_order_relaxed), 6u);
}

// ---- schedule exploration of fragment publication order ----

TEST(CollPipelineExplore, FragmentedAllreduceHoldsUnderEverySchedule) {
  // Three ranks run a pipelined non-commutative allreduce on the
  // deterministic executor; the explorer sweeps fragment publication
  // orders through the coll:frag-publish sync points (and every yield).
  auto attempt = [](hlsmpc::ult::Executor& ex) {
    topo::Machine m = topo::Machine::generic(1, 4);
    mpi::TransportStats stats;
    mpi::CollConfig cfg;
    cfg.small_threshold = 16;
    cfg.pipeline_threshold = 32;
    cfg.fragment_bytes = 32;  // 2 Mats per fragment
    mpi::ShmCollEngine eng(m, {0, 1, 2}, cfg, &stats);
    constexpr std::size_t kCount = 12;  // 192 B -> 6 fragments
    std::array<std::vector<Mat>, 3> out;
    std::vector<int> pins{0, 1, 2};
    ex.run(3, pins, [&](TaskContext& ctx) {
      const int me = ctx.task_id();
      const std::vector<Mat> in = make_contrib(me, kCount);
      out[static_cast<std::size_t>(me)].assign(kCount, Mat{0, 0, 0, 0});
      eng.allreduce(ctx, me, in.data(),
                    out[static_cast<std::size_t>(me)].data(), kCount,
                    sizeof(Mat), mat_fn());
    });
    const std::vector<Mat> ref = reference(2, kCount);
    for (int r = 0; r < 3; ++r) {
      if (out[static_cast<std::size_t>(r)] != ref) {
        throw std::runtime_error("pipelined allreduce wrong on rank " +
                                 std::to_string(r));
      }
    }
  };
  check::ExploreOptions eo;
  eo.schedules = 250;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
}

TEST(CollPipelineExplore, FragmentedScanHoldsUnderEverySchedule) {
  auto attempt = [](hlsmpc::ult::Executor& ex) {
    topo::Machine m = topo::Machine::generic(1, 4);
    mpi::TransportStats stats;
    mpi::CollConfig cfg;
    cfg.small_threshold = 16;
    cfg.pipeline_threshold = 32;
    cfg.fragment_bytes = 32;
    mpi::ShmCollEngine eng(m, {0, 1, 2}, cfg, &stats);
    constexpr std::size_t kCount = 10;
    std::array<std::vector<Mat>, 3> out;
    std::vector<int> pins{0, 1, 2};
    ex.run(3, pins, [&](TaskContext& ctx) {
      const int me = ctx.task_id();
      // In-place: recvbuf aliases the contribution, leaning on the staged
      // fragment snapshot.
      out[static_cast<std::size_t>(me)] = make_contrib(me, kCount);
      eng.scan(ctx, me, out[static_cast<std::size_t>(me)].data(),
               out[static_cast<std::size_t>(me)].data(), kCount, sizeof(Mat),
               mat_fn());
    });
    for (int r = 0; r < 3; ++r) {
      if (out[static_cast<std::size_t>(r)] != reference(r, kCount)) {
        throw std::runtime_error("pipelined scan wrong on rank " +
                                 std::to_string(r));
      }
    }
  };
  check::ExploreOptions eo;
  eo.schedules = 150;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
}

TEST(CollPipelineExplore, SeededEarlyPublicationIsFoundAndReplays) {
  // The seeded publication bug: a producer that bumps the fragment count
  // BEFORE writing the fragment payload — the store hoisted above
  // production, exactly the ordering publish_frag's release-after-write
  // protocol forbids. The explorer must find a schedule where a consumer
  // acquires the count and reads the unwritten fragment, and the shrunk
  // trace must replay to the same failure.
  auto attempt = [](hlsmpc::ult::Executor& ex) {
    constexpr int kFrags = 4;
    std::array<int, kFrags> data{};
    std::array<int, kFrags> seen{};
    std::atomic<std::uint64_t> published{0};
    std::vector<int> pins{0, 1};
    ex.run(2, pins, [&](TaskContext& ctx) {
      if (ctx.task_id() == 0) {
        for (int f = 0; f < kFrags; ++f) {
          published.store(static_cast<std::uint64_t>(f) + 1,
                          std::memory_order_release);  // BUG: data not ready
          ctx.sync_point("coll:frag-publish");
          data[static_cast<std::size_t>(f)] = 100 + f;
        }
      } else {
        hlsmpc::ult::Backoff backoff(ctx);
        for (int f = 0; f < kFrags; ++f) {
          while (published.load(std::memory_order_acquire) <
                 static_cast<std::uint64_t>(f) + 1) {
            backoff.pause();
          }
          seen[static_cast<std::size_t>(f)] =
              data[static_cast<std::size_t>(f)];
        }
      }
    });
    for (int f = 0; f < kFrags; ++f) {
      if (seen[static_cast<std::size_t>(f)] != 100 + f) {
        throw std::runtime_error("fragment published before payload write");
      }
    }
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("fragment published"), std::string::npos)
      << res.error;
  try {
    explorer.replay(attempt, res.failing_trace);
    FAIL() << "shrunk trace did not reproduce the failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fragment published"),
              std::string::npos)
        << e.what();
  }
}
