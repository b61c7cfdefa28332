// Deterministic single-threaded executor for systematic concurrency
// testing.
//
// All task bodies run as fibers on the ONE calling kernel thread; every
// fiber yield — including the yields injected at each SyncManager
// wait/notify edge via ult::TaskContext::sync_point — returns control to a
// scheduling loop that asks a SchedulePolicy which task to resume next.
// Because the policy is deterministic, a run is fully described by its
// pick sequence (ScheduleTrace): re-running the same trace replays the
// same interleaving, which is what makes failures shrinkable and
// reproducible (see explorer.hpp).
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "ult/fiber.hpp"
#include "ult/scheduler.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::check {

/// A schedule, recorded as the task id chosen at each scheduling decision.
struct ScheduleTrace {
  std::vector<int> picks;

  bool empty() const { return picks.empty(); }
  std::size_t size() const { return picks.size(); }
};

std::string to_string(const ScheduleTrace& t);
/// Inverse of to_string: whitespace-separated task ids.
ScheduleTrace parse_trace(const std::string& text);

/// Decides which task runs next. reset() is called once per run.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual void reset(int ntasks) { (void)ntasks; }
  /// `runnable` is the ascending list of unfinished task ids (non-empty).
  /// Must return one of its elements.
  virtual int pick(const std::vector<int>& runnable) = 0;
};

/// Uniformly random pick from a seeded PRNG; same seed => same schedule.
class RandomPolicy final : public SchedulePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void reset(int ntasks) override;
  int pick(const std::vector<int>& runnable) override;

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Round-robin with a preemption bound: each task runs for up to `quantum`
/// consecutive scheduling points before the next task (in id order,
/// starting offset `rotation`) takes over. quantum=1, rotation=0 is plain
/// round-robin; larger quanta approximate coarser preemption.
class RoundRobinPolicy final : public SchedulePolicy {
 public:
  explicit RoundRobinPolicy(int quantum = 1, int rotation = 0);
  void reset(int ntasks) override;
  int pick(const std::vector<int>& runnable) override;

 private:
  int quantum_;
  int rotation_;
  int current_ = -1;
  int used_ = 0;
};

/// Replays an explicit pick sequence. When the trace is exhausted, or a
/// recorded pick names a finished task, falls back to fair round-robin so
/// truncated (shrunk) traces still complete clean runs.
class TracePolicy final : public SchedulePolicy {
 public:
  explicit TracePolicy(ScheduleTrace trace) : trace_(std::move(trace)) {}
  void reset(int ntasks) override;
  int pick(const std::vector<int>& runnable) override;

 private:
  ScheduleTrace trace_;
  std::size_t next_ = 0;
  std::size_t fallback_ = 0;
};

/// Thrown when the scheduling-step budget is exhausted with unfinished
/// tasks. Under a fair bounded policy that means no task can make real
/// progress any more: a lost wakeup, deadlock, or livelock.
class DeadlockError : public std::runtime_error {
 public:
  DeadlockError(const std::string& what, ScheduleTrace trace)
      : std::runtime_error(what), trace_(std::move(trace)) {}
  const ScheduleTrace& trace() const { return trace_; }

 private:
  ScheduleTrace trace_;
};

class DeterministicExecutor final : public ult::Executor,
                                    public ult::ScheduleHook {
 public:
  /// `policy` must outlive the executor. `max_steps` bounds the number of
  /// scheduling decisions per run; exceeding it raises DeadlockError.
  explicit DeterministicExecutor(SchedulePolicy& policy,
                                 long max_steps = 200000,
                                 std::size_t stack_bytes = 256 * 1024)
      : policy_(&policy), max_steps_(max_steps), stack_bytes_(stack_bytes) {}

  /// One kernel thread for every task: `workers` is size-checked only.
  using ult::Executor::run;
  void run(int n, const std::vector<int>& pins,
           const std::vector<int>& workers,
           const std::function<void(ult::TaskContext&)>& body) override;
  const char* name() const override { return "deterministic"; }

  /// ScheduleHook: every instrumented sync edge suspends the running task
  /// so the policy can interleave another one.
  void on_sync_point(ult::TaskContext& ctx, const char* where) override;

  /// Pick sequence of the most recent run (complete even if it threw).
  const ScheduleTrace& last_trace() const { return trace_; }
  long steps() const { return steps_; }

 private:
  SchedulePolicy* policy_;
  long max_steps_;
  std::size_t stack_bytes_;
  ScheduleTrace trace_;
  long steps_ = 0;
};

}  // namespace hlsmpc::check
