#include "hb/runtime_tracer.hpp"

#include <algorithm>
#include <map>

namespace hlsmpc::hb {

namespace {

/// Tag of the edges modelled for a shared-memory collective on `context`:
/// its low word (all ones) is no p2p tag, which are all non-negative.
long coll_edge_tag(long context) { return (context << 32) | 0xffffffffL; }

}  // namespace

RuntimeTracer::RuntimeTracer(int ntasks)
    : ntasks_(ntasks), per_task_(static_cast<std::size_t>(ntasks)) {
  if (ntasks < 1) throw hls::HlsError("RuntimeTracer: need >= 1 task");
}

void RuntimeTracer::append(int task, Recorded r) {
  PerTask& pt = per_task_.at(static_cast<std::size_t>(task));
  std::lock_guard<std::mutex> lk(pt.mu);
  if (r.kind == Kind::collective) r.value = pt.coll_calls[r.tag]++;
  pt.events.push_back(std::move(r));
}

void RuntimeTracer::on_read(int task, const std::string& var, long value) {
  append(task, {Kind::read, var, value, -1, 0});
}

void RuntimeTracer::on_write(int task, const std::string& var, long value) {
  append(task, {Kind::write, var, value, -1, 0});
}

void RuntimeTracer::on_event(const obs::Event& e) {
  if (e.task < 0 || e.task >= ntasks_) return;
  switch (e.kind) {
    case obs::EventKind::p2p_send:
    case obs::EventKind::p2p_recv:
      // Peer in arg, context<<32|tag in arg2.
      append(e.task, {e.kind == obs::EventKind::p2p_send ? Kind::send
                                                          : Kind::recv,
                      {},
                      0,
                      static_cast<int>(e.arg),
                      static_cast<long>(e.arg2)});
      return;
    case obs::EventKind::collective: {
      // p2p-served collectives are already traced through their messages.
      // A shared-memory call with no payload returns before synchronizing
      // (barrier excepted), so it yields no edge either. Both decisions
      // are the same on every rank, so per-context ordinals stay aligned.
      const obs::CollOp op = obs::coll_op_of(e.arg);
      if (obs::coll_alg_of(e.arg) == obs::CollAlg::p2p) return;
      if (op != obs::CollOp::barrier && e.arg2 <= 0) return;
      const int root =
          op == obs::CollOp::bcast ? obs::coll_root_of(e.arg) : -1;
      append(e.task, {Kind::collective, {}, 0, root, e.instance});
      return;
    }
    default:
      return;
  }
}

Trace RuntimeTracer::trace() const {
  // Writers hold one task's lock at a time, so taking all of them in
  // ascending order cannot deadlock.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(per_task_.size());
  for (const PerTask& pt : per_task_) locks.emplace_back(pt.mu);

  // All ranks issue a communicator's collectives in the same order, so the
  // k-th call on a context is one collective across its members.
  std::map<std::pair<long, long>, std::vector<int>> members;
  for (int task = 0; task < ntasks_; ++task) {
    for (const Recorded& r : per_task_[static_cast<std::size_t>(task)].events) {
      if (r.kind == Kind::collective) {
        members[{r.tag, r.value}].push_back(task);
      }
    }
  }

  Trace t(ntasks_);
  for (int task = 0; task < ntasks_; ++task) {
    for (const Recorded& r : per_task_[static_cast<std::size_t>(task)].events) {
      switch (r.kind) {
        case Kind::read:
          t.read(task, r.var, r.value);
          break;
        case Kind::write:
          t.write(task, r.var, r.value);
          break;
        case Kind::send:
          t.send(task, r.peer, r.tag);
          break;
        case Kind::recv:
          t.recv(task, r.peer, r.tag);
          break;
        case Kind::collective: {
          // Only the edges the engine (DESIGN §11) guarantees. A bcast
          // root publishes before any reader copies: root -> each reader
          // (its wait for the readers' acks is not modelled). Every other
          // op ends in the plan barrier: all-to-all, modelled as a gather
          // to and a release from the lowest member.
          const std::vector<int>& m = members.at({r.tag, r.value});
          const long tag = coll_edge_tag(r.tag);
          if (r.peer >= 0) {
            if (task == r.peer) {
              for (int o : m) {
                if (o != task) t.send(task, o, tag);
              }
            } else if (std::find(m.begin(), m.end(), r.peer) != m.end()) {
              t.recv(task, r.peer, tag);
            }
          } else if (task == m.front()) {
            for (int o : m) {
              if (o != task) t.recv(task, o, tag);
            }
            for (int o : m) {
              if (o != task) t.send(task, o, tag);
            }
          } else {
            t.send(task, m.front(), tag);
            t.recv(task, m.front(), tag);
          }
          break;
        }
      }
    }
  }
  return t;
}

std::size_t RuntimeTracer::num_events() const {
  std::size_t n = 0;
  for (const PerTask& pt : per_task_) {
    std::lock_guard<std::mutex> lk(pt.mu);
    n += pt.events.size();
  }
  return n;
}

}  // namespace hlsmpc::hb
