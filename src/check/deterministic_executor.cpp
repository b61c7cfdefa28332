#include "check/deterministic_executor.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "fault/injector.hpp"

namespace hlsmpc::check {

std::string to_string(const ScheduleTrace& t) {
  std::ostringstream os;
  for (std::size_t i = 0; i < t.picks.size(); ++i) {
    if (i > 0) os << ' ';
    os << t.picks[i];
  }
  return os.str();
}

ScheduleTrace parse_trace(const std::string& text) {
  ScheduleTrace t;
  std::istringstream is(text);
  int pick = 0;
  while (is >> pick) t.picks.push_back(pick);
  return t;
}

void RandomPolicy::reset(int) { rng_.seed(seed_); }

int RandomPolicy::pick(const std::vector<int>& runnable) {
  return runnable[static_cast<std::size_t>(rng_() % runnable.size())];
}

RoundRobinPolicy::RoundRobinPolicy(int quantum, int rotation)
    : quantum_(std::max(1, quantum)), rotation_(std::max(0, rotation)) {}

void RoundRobinPolicy::reset(int ntasks) {
  current_ = ntasks > 0 ? rotation_ % ntasks : 0;
  used_ = 0;
}

int RoundRobinPolicy::pick(const std::vector<int>& runnable) {
  // Keep the current task while it is runnable and has quantum left.
  const bool current_runnable =
      std::find(runnable.begin(), runnable.end(), current_) != runnable.end();
  if (!current_runnable || used_ >= quantum_) {
    // Next runnable task after current_, wrapping (id order).
    auto it = std::upper_bound(runnable.begin(), runnable.end(), current_);
    current_ = it == runnable.end() ? runnable.front() : *it;
    used_ = 0;
  }
  ++used_;
  return current_;
}

void TracePolicy::reset(int) {
  next_ = 0;
  fallback_ = 0;
}

int TracePolicy::pick(const std::vector<int>& runnable) {
  while (next_ < trace_.picks.size()) {
    const int want = trace_.picks[next_++];
    if (std::find(runnable.begin(), runnable.end(), want) != runnable.end()) {
      return want;
    }
    // Recorded task already finished under this (edited) trace; skip.
  }
  // Trace exhausted: fair rotation, so every live task keeps progressing
  // (picking a fixed task would spin a poll-yield waiter forever).
  return runnable[fallback_++ % runnable.size()];
}

namespace {

/// Cooperative context for checked tasks: runs inside a fiber on the
/// executor's kernel thread.
class DetTaskContext final : public ult::TaskContext {
 public:
  void yield() override { ult::Fiber::yield(); }
  bool cooperative() const override { return true; }
};

}  // namespace

void DeterministicExecutor::on_sync_point(ult::TaskContext&, const char*) {
  // Advance the fault injector's sync-point clock: arm_at_sync_point()
  // places faults relative to this count, giving schedule-positioned
  // injection (no-op when no injector is installed).
  fault::tick_sync_point();
  // Turn the sync edge into a scheduling decision. Only meaningful while
  // a fiber is running (i.e. during run()).
  if (ult::Fiber::current() != nullptr) ult::Fiber::yield();
}

void DeterministicExecutor::run(
    int n, const std::vector<int>& pins, const std::vector<int>& workers,
    const std::function<void(ult::TaskContext&)>& body) {
  if (static_cast<int>(pins.size()) != n) {
    throw std::invalid_argument("DeterministicExecutor: pins.size() != n");
  }
  if (static_cast<int>(workers.size()) != n) {
    throw std::invalid_argument("DeterministicExecutor: workers.size() != n");
  }
  trace_.picks.clear();
  steps_ = 0;
  if (n == 0) return;
  policy_->reset(n);

  std::vector<DetTaskContext> ctxs(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<ult::Fiber>> fibers;
  fibers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& ctx = ctxs[static_cast<std::size_t>(i)];
    ctx.set_task_id(i);
    ctx.set_cpu(pins[static_cast<std::size_t>(i)]);
    ctx.set_schedule_hook(this);
    fibers.push_back(std::make_unique<ult::Fiber>(
        [&body, &ctx] { body(ctx); }, stack_bytes_));
  }

  std::vector<int> runnable(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) runnable[static_cast<std::size_t>(i)] = i;

  while (!runnable.empty()) {
    if (steps_ >= max_steps_) {
      throw DeadlockError(
          "DeterministicExecutor: no completion after " +
              std::to_string(max_steps_) + " scheduling steps with " +
              std::to_string(runnable.size()) +
              " unfinished task(s) — lost wakeup or deadlock",
          trace_);
    }
    int t = policy_->pick(runnable);
    if (std::find(runnable.begin(), runnable.end(), t) == runnable.end()) {
      t = runnable.front();  // defensive: policies must pick runnable tasks
    }
    trace_.picks.push_back(t);
    ++steps_;
    // A task exception propagates immediately; last_trace() still holds
    // the schedule that led to it.
    const bool finished = fibers[static_cast<std::size_t>(t)]->resume();
    if (finished) {
      runnable.erase(std::find(runnable.begin(), runnable.end(), t));
    }
  }
}

}  // namespace hlsmpc::check
