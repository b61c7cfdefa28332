// Automatic HLS-eligibility detection over a live run (the paper's
// conclusion / future work, built on the §III formalism).
//
// A RuntimeTracer is an obs::Sink: chain it onto the recorder the MPI
// runtime reports to, and it turns the runtime's event stream into the
// synchronizations the paper's model needs. p2p_send/p2p_recv events
// become message edges (which also covers collectives built over p2p);
// `collective` events served by the shared-memory engine, which sends no
// message, become the edges that engine guarantees (see trace()). The
// application reports reads/writes to candidate global variables through
// on_read/on_write — the instrumentation a compiler pass would insert.
// After the run, trace() assembles an hb::Trace and advise() runs the
// Advisor.
//
//   hb::RuntimeTracer tracer(nranks);
//   obs::Recorder rec({.ntasks = nranks, .ring_capacity = 0});
//   rec.chain(&tracer);
//   mpi::Options o;  o.nranks = nranks;  o.obs = &rec;
//   mpi::Runtime runtime(machine, o);
//   runtime.run([&](Comm& world, TaskContext& ctx) {
//     ...
//     tracer.on_write(ctx.task_id(), "table", checksum);
//     ...
//   });
//   for (auto& a : tracer.advise()) ...
//
// (mpc::Node takes the tracer as NodeOptions::obs_sink.)
//
// Limitations (documented, by design): receives are recorded at wait()
// (use wait, not bare test-loops, in traced programs), and value tracking
// is by the caller-provided long (hash large objects).
#pragma once

#include <mutex>
#include <unordered_map>

#include "hb/advisor.hpp"
#include "obs/event.hpp"

namespace hlsmpc::hb {

class RuntimeTracer final : public obs::Sink {
 public:
  explicit RuntimeTracer(int ntasks);

  // Application-side instrumentation.
  void on_read(int task, const std::string& var, long value);
  void on_write(int task, const std::string& var, long value);

  /// The runtime's input: p2p events and shared-memory collectives are
  /// recorded, everything else is ignored.
  void on_event(const obs::Event& e) override;

  /// Assemble the recorded events into an analyzable trace.
  Trace trace() const;
  /// Full pipeline: trace -> happens-before -> per-variable advice.
  std::vector<Advice> advise() const { return Advisor::advise(trace()); }

  std::size_t num_events() const;

 private:
  enum class Kind { read, write, send, recv, collective };
  /// send/recv: peer task and ctx<<32|tag. collective: tag = context,
  /// value = the call's ordinal on that context, peer = root task for a
  /// bcast, -1 for an all-to-all synchronizing op.
  struct Recorded {
    Kind kind;
    std::string var;
    long value = 0;
    int peer = -1;
    long tag = 0;
  };
  struct PerTask {
    mutable std::mutex mu;
    std::vector<Recorded> events;
    std::unordered_map<long, long> coll_calls;  // context -> calls so far
  };

  void append(int task, Recorded r);

  int ntasks_;
  std::vector<PerTask> per_task_;
};

}  // namespace hlsmpc::hb
