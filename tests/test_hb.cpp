#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>
#include "hb/advisor.hpp"
#include "hb/analyzer.hpp"
#include "hb/trace.hpp"

namespace hb = hlsmpc::hb;

TEST(Trace, ProgramOrderAndVariables) {
  hb::Trace t(2);
  t.write(0, "x", 1);
  t.read(1, "y", 0);
  t.read(0, "x", 1);
  EXPECT_EQ(t.program_order(0).size(), 2u);
  EXPECT_EQ(t.program_order(1).size(), 1u);
  EXPECT_EQ(t.variables(), (std::vector<std::string>{"x", "y"}));
  EXPECT_THROW(t.read(5, "x", 0), hlsmpc::hls::HlsError);
  EXPECT_THROW(t.send(0, 9), hlsmpc::hls::HlsError);
  EXPECT_THROW(hb::Trace(0), hlsmpc::hls::HlsError);
}

TEST(Analyzer, ProgramOrderIsHappensBefore) {
  hb::Trace t(1);
  t.write(0, "x", 1);
  t.read(0, "x", 1);
  hb::Analyzer a(t);
  EXPECT_TRUE(a.happens_before(0, 1));
  EXPECT_FALSE(a.happens_before(1, 0));
  EXPECT_FALSE(a.happens_before(0, 0));
}

TEST(Analyzer, SendRecvCreatesEdge) {
  // The paper's §III.A example: a();send || recv;d() gives a < d, and
  // c || b, c || d.
  hb::Trace t(2);
  t.write(0, "a_marker", 1);  // a()  (event 0)
  t.send(0, 1);               // event 1
  t.write(0, "c_marker", 1);  // c()  (event 2)
  t.write(1, "b_marker", 1);  // b()  (event 3)
  t.recv(1, 0);               // event 4
  t.write(1, "d_marker", 1);  // d()  (event 5)
  hb::Analyzer a(t);
  EXPECT_TRUE(a.happens_before(0, 5));   // a < d
  EXPECT_TRUE(a.parallel(2, 3));         // c || b
  EXPECT_TRUE(a.parallel(2, 5));         // c || d
  EXPECT_TRUE(a.happens_before(0, 2));   // a < c (program order)
  EXPECT_TRUE(a.happens_before(3, 5));   // b < d
  EXPECT_FALSE(a.happens_before(5, 0));
}

TEST(Analyzer, BarrierOrdersAcrossTasks) {
  hb::Trace t(3);
  t.write(0, "x", 1);  // event 0
  t.barrier();         // events 1,2,3
  t.read(1, "x", 1);   // event 4
  hb::Analyzer a(t);
  EXPECT_TRUE(a.happens_before(0, 4));
  EXPECT_FALSE(a.happens_before(4, 0));
}

TEST(Analyzer, UnmatchedRecvIsRejected) {
  hb::Trace t(2);
  t.recv(1, 0);
  EXPECT_THROW(hb::Analyzer{t}, hlsmpc::hls::HlsError);
}

TEST(Analyzer, TagsMatchSelectively) {
  hb::Trace t(2);
  t.send(0, 1, /*tag=*/7);
  t.write(0, "x", 5);
  t.send(0, 1, /*tag=*/8);
  t.recv(1, 0, /*tag=*/7);
  t.recv(1, 0, /*tag=*/8);
  t.read(1, "x", 5);
  hb::Analyzer a(t);
  // write(x) precedes send(tag 8) which precedes recv(tag 8).
  EXPECT_TRUE(a.happens_before(1, 5));
}

// ---- eligibility (paper §III.B / §III.C) ----

TEST(Eligibility, ReadOnlyTableIsEligible) {
  // Every task writes its own copy the same way, then only reads. With a
  // barrier between init and reads, the writes are last-writes with the
  // read's value -> coherent.
  hb::Trace t(4);
  for (int task = 0; task < 4; ++task) t.write(task, "table", 42);
  t.barrier();
  for (int task = 0; task < 4; ++task) t.read(task, "table", 42);
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("table").eligibility, hb::Eligibility::eligible);
}

TEST(Eligibility, ParallelWriteSameValueIsEligible) {
  // Writes happen in parallel with reads but write the identical value:
  // condition (1) holds.
  hb::Trace t(2);
  t.write(0, "x", 7);
  t.read(1, "x", 7);
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("x").eligibility, hb::Eligibility::eligible);
}

TEST(Eligibility, RankDependentValueCannotBeSharedAsIs) {
  // Each task writes its rank: reads of the private copies return
  // different values, so the variable is not coherent. Condition (3) is
  // only *necessary* (paper §III.C): some candidate write has the right
  // value, so the analyzer reports needs_synchronization and leaves the
  // final verdict to the advisor (which rejects it: not SPMD-identical).
  hb::Trace t(2);
  t.write(0, "rank", 0);
  t.write(1, "rank", 1);
  t.barrier();
  t.read(0, "rank", 0);
  t.read(1, "rank", 1);
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("rank").eligibility,
            hb::Eligibility::needs_synchronization);
  EXPECT_EQ(result.for_var("rank").incoherent_reads.size(), 2u);
}

TEST(Eligibility, SpmdRewriteNeedsSynchronization) {
  // Both tasks write the same evolving sequence but without barriers
  // between a write and the other task's read: a parallel write with a
  // different value violates condition (1), yet condition (3) holds (the
  // program-order write has the right value), so singles can fix it.
  hb::Trace t(2);
  t.write(0, "v", 1);
  t.read(0, "v", 1);
  t.write(0, "v", 2);
  t.read(0, "v", 2);
  t.write(1, "v", 1);
  t.read(1, "v", 1);
  t.write(1, "v", 2);
  t.read(1, "v", 2);
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("v").eligibility,
            hb::Eligibility::needs_synchronization);
}

TEST(Eligibility, StaleLastWriteIsCaught) {
  // Task 0 updates x to 9 then signals task 1, but task 1's read still
  // expects the old private value 5: under sharing it would see 9.
  hb::Trace t(2);
  t.write(0, "x", 5);
  t.write(1, "x", 5);
  t.barrier();
  t.write(0, "x", 9);
  t.send(0, 1);
  t.recv(1, 0);
  t.read(1, "x", 5);  // stale under sharing: last write (9) differs
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("x").eligibility, hb::Eligibility::ineligible);
  EXPECT_EQ(result.for_var("x").incoherent_reads.size(), 1u);
}

TEST(Eligibility, InterveningWriteScreensOldWrites)
{
  // write(1) < write(2) < read(2): only the *last* write matters
  // (condition 2's screening), so the old value 1 does not disqualify.
  hb::Trace t(1);
  t.write(0, "x", 1);
  t.write(0, "x", 2);
  t.read(0, "x", 2);
  const auto result = hb::Analyzer(t).analyze();
  EXPECT_EQ(result.for_var("x").eligibility, hb::Eligibility::eligible);
}

// ---- property sweep: vector clocks vs brute-force reachability ----

namespace {

/// Reference happens-before: explicit edge list + BFS reachability.
class ReferenceHb {
 public:
  explicit ReferenceHb(const hb::Trace& trace) {
    const auto& events = trace.events();
    adj_.resize(events.size());
    // Program order.
    for (int t = 0; t < trace.ntasks(); ++t) {
      const auto& order = trace.program_order(t);
      for (std::size_t i = 1; i < order.size(); ++i) {
        adj_[static_cast<std::size_t>(order[i - 1])].push_back(order[i]);
      }
    }
    // Send -> recv matching (k-th send to k-th recv per channel).
    std::map<std::tuple<int, int, long>, std::vector<int>> sends, recvs;
    for (const hb::Event& e : events) {
      if (e.kind == hb::EventKind::send) {
        sends[{e.task, e.peer, e.tag}].push_back(e.id);
      }
      if (e.kind == hb::EventKind::recv) {
        recvs[{e.peer, e.task, e.tag}].push_back(e.id);
      }
    }
    for (auto& [key, ss] : sends) {
      const auto& rr = recvs[key];
      for (std::size_t k = 0; k < ss.size() && k < rr.size(); ++k) {
        adj_[static_cast<std::size_t>(ss[k])].push_back(rr[k]);
      }
    }
    // Barrier waves: wave events mutually connect via a fan-in/fan-out
    // virtual node; emulate with edges from every wave member to every
    // other wave member's successors... simplest faithful model: every
    // barrier event of a wave gets edges to all barrier events of the
    // same wave (creating a clique) minus self; reachability THROUGH the
    // clique matches "before any barrier member < after any member".
    std::map<int, std::vector<int>> waves;
    for (const hb::Event& e : events) {
      if (e.kind == hb::EventKind::barrier) {
        waves[e.barrier_id].push_back(e.id);
      }
    }
    for (auto& [wave, members] : waves) {
      for (int a : members) {
        for (int b : members) {
          if (a != b) adj_[static_cast<std::size_t>(a)].push_back(b);
        }
      }
    }
  }

  bool reaches(int a, int b) const {
    if (a == b) return false;
    std::vector<bool> seen(adj_.size(), false);
    std::vector<int> stack = {a};
    seen[static_cast<std::size_t>(a)] = true;
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      for (int nxt : adj_[static_cast<std::size_t>(cur)]) {
        if (nxt == b) return true;
        if (!seen[static_cast<std::size_t>(nxt)]) {
          seen[static_cast<std::size_t>(nxt)] = true;
          stack.push_back(nxt);
        }
      }
    }
    return false;
  }

 private:
  std::vector<std::vector<int>> adj_;
};

hb::Trace random_trace(std::uint64_t seed, int ntasks, int events_per_task) {
  hb::Trace trace(ntasks);
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  auto var = [&next] {
    return std::string("v").append(std::to_string(next() % 2));
  };
  // Build per-task scripts; sends are generated first and recvs consume
  // them so the trace always replays (matched channels).
  struct Pending {
    int from, to;
    long tag;
  };
  std::vector<std::vector<Pending>> inbox(static_cast<std::size_t>(ntasks));
  for (int round = 0; round < events_per_task; ++round) {
    for (int t = 0; t < ntasks; ++t) {
      switch (next() % 5) {
        case 0: {
          const std::string v = var();
          trace.write(t, v, static_cast<long>(next() % 3));
          break;
        }
        case 1: {
          const std::string v = var();
          trace.read(t, v, static_cast<long>(next() % 3));
          break;
        }
        case 2: {
          const int to = static_cast<int>(next()) % ntasks;
          if (to != t) {
            const long tag = static_cast<long>(next() % 3);
            trace.send(t, to, tag);
            inbox[static_cast<std::size_t>(to)].push_back({t, to, tag});
          }
          break;
        }
        case 3: {
          auto& box = inbox[static_cast<std::size_t>(t)];
          if (!box.empty()) {
            // Consume the OLDEST pending message from some sender: FIFO
            // per channel keeps matching consistent.
            const Pending p = box.front();
            box.erase(box.begin());
            trace.recv(t, p.from, p.tag);
          }
          break;
        }
        case 4:
          if (t == 0 && next() % 4 == 0) trace.barrier();
          break;
      }
    }
  }
  // Drain remaining matched messages so the replay terminates.
  for (int t = 0; t < ntasks; ++t) {
    for (const Pending& p : inbox[static_cast<std::size_t>(t)]) {
      trace.recv(t, p.from, p.tag);
    }
  }
  return trace;
}

}  // namespace

class HbModelSweep : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, HbModelSweep,
                         testing::Values(1u, 7u, 42u, 1234u, 98765u));

TEST_P(HbModelSweep, VectorClocksMatchGraphReachability) {
  const hb::Trace trace = random_trace(GetParam(), 3, 12);
  hb::Analyzer analyzer(trace);
  ReferenceHb ref(trace);
  const int n = static_cast<int>(trace.events().size());
  int disagreements = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      const auto& ea = trace.events()[static_cast<std::size_t>(a)];
      const auto& eb = trace.events()[static_cast<std::size_t>(b)];
      // Barrier-event pairs of one wave are defined as unordered by the
      // analyzer; the clique reference marks them mutually reachable.
      if (ea.kind == hb::EventKind::barrier &&
          eb.kind == hb::EventKind::barrier &&
          ea.barrier_id == eb.barrier_id) {
        continue;
      }
      if (analyzer.happens_before(a, b) != ref.reaches(a, b)) {
        ++disagreements;
        EXPECT_EQ(analyzer.happens_before(a, b), ref.reaches(a, b))
            << "events " << a << " -> " << b;
        if (disagreements > 3) return;  // don't spam
      }
    }
  }
  EXPECT_EQ(disagreements, 0);
}

// ---- advisor (paper §III.C single insertion) ----

TEST(Advisor, RecommendsSingleForSpmdWrites) {
  hb::Trace t(3);
  for (int step = 1; step <= 2; ++step) {
    for (int task = 0; task < 3; ++task) t.write(task, "cfg", step * 10);
    for (int task = 0; task < 3; ++task) t.read(task, "cfg", step * 10);
  }
  const auto advice = hb::Advisor::advise(t);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_TRUE(advice[0].spmd_identical_writes);
  EXPECT_EQ(advice[0].recommendation,
            hb::Recommendation::wrap_writes_in_single);
}

TEST(Advisor, RecommendsShareAsIsForCoherentVar) {
  hb::Trace t(2);
  t.write(0, "c", 3);
  t.write(1, "c", 3);
  t.barrier();
  t.read(0, "c", 3);
  t.read(1, "c", 3);
  const auto advice = hb::Advisor::advise(t);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::share_as_is);
}

TEST(Advisor, KeepsRankDependentDataPrivate) {
  hb::Trace t(2);
  t.write(0, "r", 0);
  t.write(1, "r", 1);
  t.barrier();
  t.read(0, "r", 0);
  t.read(1, "r", 1);
  const auto advice = hb::Advisor::advise(t);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::keep_private);
  EXPECT_FALSE(advice[0].spmd_identical_writes);
}

TEST(Advisor, MixedVariablesGetSeparateAdvice) {
  hb::Trace t(2);
  // "table": constant, eligible. "rank": private. Interleaved.
  t.write(0, "table", 100);
  t.write(1, "table", 100);
  t.write(0, "rank", 0);
  t.write(1, "rank", 1);
  t.barrier();
  t.read(0, "table", 100);
  t.read(1, "rank", 1);
  const auto advice = hb::Advisor::advise(t);
  ASSERT_EQ(advice.size(), 2u);
  EXPECT_EQ(advice[0].var, "rank");
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::keep_private);
  EXPECT_EQ(advice[1].var, "table");
  EXPECT_EQ(advice[1].recommendation, hb::Recommendation::share_as_is);
}
