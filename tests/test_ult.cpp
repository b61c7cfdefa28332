#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "ult/fiber.hpp"
#include "ult/scheduler.hpp"
#include "ult/task_context.hpp"

namespace check = hlsmpc::check;
namespace ult = hlsmpc::ult;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  ult::Fiber f([&] { x = 42; });
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(x, 42);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  ult::Fiber f([&] {
    order.push_back(1);
    ult::Fiber::yield();
    order.push_back(3);
    ult::Fiber::yield();
    order.push_back(5);
  });
  EXPECT_FALSE(f.resume());
  order.push_back(2);
  EXPECT_FALSE(f.resume());
  order.push_back(4);
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentIsSetOnlyInsideFiber) {
  EXPECT_EQ(ult::Fiber::current(), nullptr);
  ult::Fiber* observed = nullptr;
  ult::Fiber f([&] { observed = ult::Fiber::current(); });
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(ult::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesFromResume) {
  ult::Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.done());
}

namespace {

/// 1/3 in the current SSE rounding mode (volatile: computed at run time).
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

}  // namespace

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  // The FP control state is part of a fiber's context: a mode set inside
  // a fiber survives its yields, and neither the resumer nor a fiber
  // interleaved on the same thread sees it.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  int up_ok = 0;
  int near_ok = 0;
  ult::Fiber up([&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 3; ++i) {
      ult::Fiber::yield();
      if (std::fegetround() == FE_UPWARD && third() > nearest) ++up_ok;
    }
  });
  ult::Fiber near([&] {
    for (int i = 0; i < 3; ++i) {
      if (std::fegetround() == FE_TONEAREST && third() == nearest) ++near_ok;
      ult::Fiber::yield();
    }
  });
  while (!up.done() || !near.done()) {
    if (!up.done()) up.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    if (!near.done()) near.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  }
  EXPECT_EQ(up_ok, 3);
  EXPECT_EQ(near_ok, 3);
  EXPECT_EQ(third(), nearest);
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossYields) {
  // Unwinding runs on the fiber's own stack: a throw after a yield is
  // caught inside the fiber, destructors on the way run, and the fiber
  // yields again from inside the handler.
  std::vector<std::string> log;
  struct Guard {
    std::vector<std::string>* log;
    ~Guard() { log->push_back("unwound"); }
  };
  ult::Fiber f([&] {
    try {
      Guard g{&log};
      ult::Fiber::yield();
      throw std::runtime_error("thrown");
    } catch (const std::runtime_error& e) {
      log.push_back(e.what());
      ult::Fiber::yield();
      log.push_back("handler resumed");
    }
  });
  EXPECT_FALSE(f.resume());
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(f.resume());
  EXPECT_EQ(log, (std::vector<std::string>{"unwound", "thrown"}));
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(log.back(), "handler resumed");
}

TEST(Fiber, MisuseThrows) {
  EXPECT_THROW(ult::Fiber::yield(), std::logic_error);  // outside a fiber
  EXPECT_THROW(ult::Fiber({}, 256 * 1024), std::invalid_argument);
  EXPECT_THROW(ult::Fiber([] {}, 1024), std::invalid_argument);  // tiny stack
  ult::Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);  // already finished
}

TEST(Scheduler, RunsAllTasks) {
  ult::Scheduler s(2);
  std::atomic<int> sum{0};
  for (int i = 0; i < 10; ++i) {
    s.spawn(i % 2, i, i, [&sum, i](ult::FiberTaskContext&) { sum += i; });
  }
  s.run();
  EXPECT_EQ(sum.load(), 45);
}

TEST(Scheduler, TasksOnSameWorkerInterleaveViaYield) {
  // Two tasks on one worker ping-pong through a shared counter; this only
  // terminates if yield() actually gives the other fiber the cpu.
  ult::Scheduler s(1);
  std::atomic<int> turn{0};
  std::vector<int> log;
  std::mutex log_mu;
  for (int me = 0; me < 2; ++me) {
    s.spawn(0, me, me, [&, me](ult::FiberTaskContext& ctx) {
      for (int round = 0; round < 3; ++round) {
        while (turn.load() % 2 != me) ctx.yield();
        {
          std::lock_guard<std::mutex> lk(log_mu);
          log.push_back(me);
        }
        turn.fetch_add(1);
      }
    });
  }
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Scheduler, TaskExceptionSurfacesFromRun) {
  ult::Scheduler s(2);
  s.spawn(0, 0, 0, [](ult::FiberTaskContext&) { throw std::runtime_error("x"); });
  s.spawn(1, 1, 1, [](ult::FiberTaskContext&) {});
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Scheduler, MigrationMovesTaskToTargetWorker) {
  ult::Scheduler s(2);
  std::atomic<int> before{-1}, after{-1};
  s.spawn(0, 0, 0, [&](ult::FiberTaskContext& ctx) {
    before = ctx.target_worker();
    ctx.set_target_worker(1);
    ctx.set_cpu(1);
    ctx.yield();  // migration takes effect here
    after = ctx.target_worker();
  });
  s.run();
  EXPECT_EQ(before.load(), 0);
  EXPECT_EQ(after.load(), 1);
}

TEST(Scheduler, RejectsBadWorkerIndex) {
  ult::Scheduler s(2);
  EXPECT_THROW(s.spawn(2, 0, 0, [](ult::FiberTaskContext&) {}),
               std::out_of_range);
  EXPECT_THROW(ult::Scheduler{0}, std::invalid_argument);
}

namespace {

// Shared harness for the executor equivalence tests: all ranks increment a
// counter under a mutex and wait for everyone via wait_until.
void run_counter_rendezvous(ult::Executor& ex, int n) {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<int> pins(static_cast<std::size_t>(n));
  std::iota(pins.begin(), pins.end(), 0);
  ex.run(n, pins, [&](ult::TaskContext& ctx) {
    std::unique_lock<std::mutex> lk(mu);
    ++arrived;
    cv.notify_all();
    ult::wait_until(ctx, lk, cv, [&] { return arrived == n; });
  });
  EXPECT_EQ(arrived, n);
}

}  // namespace

TEST(Executor, ThreadBackendRendezvous) {
  ult::ThreadExecutor ex;
  run_counter_rendezvous(ex, 8);
}

TEST(Executor, FiberBackendRendezvousSingleWorker) {
  // The hardest case: 8 tasks rendezvous on ONE kernel thread. Only works
  // because cooperative wait_until yields instead of parking.
  ult::FiberExecutor ex(1);
  run_counter_rendezvous(ex, 8);
}

TEST(Executor, FiberBackendRendezvousMultiWorker) {
  ult::FiberExecutor ex(4);
  run_counter_rendezvous(ex, 16);
}

TEST(Executor, PinsAreVisibleAsCpu) {
  ult::ThreadExecutor ex;
  std::vector<int> pins = {3, 1, 4, 1};
  std::atomic<int> bad{0};
  ex.run(4, pins, [&](ult::TaskContext& ctx) {
    if (ctx.cpu() != pins[static_cast<std::size_t>(ctx.task_id())]) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Executor, PinSizeMismatchThrows) {
  ult::ThreadExecutor tex;
  ult::FiberExecutor fex(2);
  EXPECT_THROW(tex.run(3, {0, 1}, [](ult::TaskContext&) {}),
               std::invalid_argument);
  EXPECT_THROW(fex.run(3, {0, 1}, [](ult::TaskContext&) {}),
               std::invalid_argument);
}

namespace {

/// Worker slot of every task of one FiberExecutor run, read at entry.
std::vector<int> fiber_workers_of(ult::FiberExecutor& ex,
                                  const std::vector<int>& pins,
                                  const std::vector<int>* workers) {
  const int n = static_cast<int>(pins.size());
  std::vector<int> got(pins.size(), -1);
  const auto record = [&](ult::TaskContext& ctx) {
    got[static_cast<std::size_t>(ctx.task_id())] =
        dynamic_cast<ult::FiberTaskContext&>(ctx).target_worker();
  };
  if (workers != nullptr) {
    ex.run(n, pins, *workers, record);
  } else {
    ex.run(n, pins, record);
  }
  return got;
}

}  // namespace

TEST(Executor, FiberWorkersPlaceTasksModuloWorkerCount) {
  ult::FiberExecutor ex(3);
  const std::vector<int> pins = {0, 0, 0, 0, 0};
  const std::vector<int> workers = {4, 0, 2, 7, 1};
  std::atomic<int> bad_cpu{0};
  ex.run(5, pins, workers, [&](ult::TaskContext& ctx) {
    if (ctx.cpu() != 0) ++bad_cpu;
  });
  EXPECT_EQ(bad_cpu.load(), 0) << "workers must not change cpu()";
  EXPECT_EQ(fiber_workers_of(ex, pins, &workers),
            (std::vector<int>{1, 0, 2, 1, 1}));
}

TEST(Executor, PinsOnlyRunPlacesAsWorkersEqualPins) {
  ult::FiberExecutor ex(4);
  const std::vector<int> pins = {5, 2, 0, 7, 3, 6};
  EXPECT_EQ(fiber_workers_of(ex, pins, nullptr),
            fiber_workers_of(ex, pins, &pins));
  EXPECT_EQ(fiber_workers_of(ex, pins, nullptr),
            (std::vector<int>{1, 2, 0, 3, 3, 2}));
}

TEST(Executor, WorkerSizeMismatchThrows) {
  ult::ThreadExecutor tex;
  ult::FiberExecutor fex(2);
  check::RandomPolicy policy(1);
  check::DeterministicExecutor dex(policy);
  for (ult::Executor* ex : std::vector<ult::Executor*>{&tex, &fex, &dex}) {
    EXPECT_THROW(ex->run(2, {0, 1}, {0}, [](ult::TaskContext&) {}),
                 std::invalid_argument)
        << ex->name();
    EXPECT_THROW(ex->run(2, {0, 1}, {0, 1, 2}, [](ult::TaskContext&) {}),
                 std::invalid_argument)
        << ex->name();
  }
}

TEST(Executor, BodyExceptionPropagates) {
  ult::ThreadExecutor ex;
  EXPECT_THROW(
      ex.run(2, {0, 1},
             [](ult::TaskContext& ctx) {
               if (ctx.task_id() == 1) throw std::runtime_error("y");
             }),
      std::runtime_error);
}
