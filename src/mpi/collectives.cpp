// Collective operations: a dispatch layer over two engines.
//
// When a communicator has a shared-memory engine (CollConfig::enable_shm
// and >= 2 ranks), data-moving collectives route to it — zero-copy reads
// between ranks of one address space, see coll_shm.hpp. The p2p algorithms
// below remain the fallback (engine disabled, size-1 comms, and
// gather/gatherv/scatter, which keep their posted-receive form). They run
// in a dedicated context so they can never match application
// point-to-point traffic, and target intra-node scale (<= a few dozen
// ranks): dissemination barrier and binomial bcast/reduce (schedules in
// coll_algo.hpp), linear gather/scatter, chain scan.
#include <cstring>
#include <vector>

#include "mpi/coll_algo.hpp"
#include "mpi/coll_shm.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "obs/recorder.hpp"

namespace hlsmpc::mpi {

namespace {

#if HLSMPC_OBS_ENABLED
/// RAII span for one collective call: bumps coll_ops on entry, records a
/// `collective` event covering the whole call on destruction. Composite
/// collectives (allreduce, allgather, ...) nest their phases' spans inside
/// their own; a trace viewer renders them as nested slices. The event's
/// arg packs the op together with the algorithm that actually served the
/// call (set_alg; defaults to p2p).
class CollScope {
 public:
  CollScope(Runtime& rt, obs::CollOp op, const ult::TaskContext& ctx,
            std::int64_t bytes)
      : obs_(rt.obs()),
        op_(op),
        task_(ctx.task_id()),
        cpu_(ctx.cpu()),
        bytes_(bytes) {
    if (obs_ == nullptr) return;
    obs_->count(task_, obs::Counter::coll_ops);
    t0_ = obs_->now();
  }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;
  ~CollScope() {
    if (obs_ == nullptr) return;
    obs::Event e;
    e.kind = obs::EventKind::collective;
    e.task = task_;
    e.cpu = cpu_;
    e.t0 = t0_;
    e.t1 = obs_->now();
    e.arg = obs::coll_event_arg(op_, alg_);
    e.arg2 = bytes_;
    obs_->record(e);
  }

  void set_alg(obs::CollAlg alg) {
    alg_ = alg;
    if (obs_ != nullptr && alg != obs::CollAlg::p2p) {
      obs_->count(task_, obs::Counter::coll_shm_ops);
      if (alg == obs::CollAlg::shm_pipelined) {
        obs_->count(task_, obs::Counter::coll_shm_pipelined_ops);
      }
    }
  }

 private:
  obs::Recorder* obs_;
  obs::CollOp op_;
  obs::CollAlg alg_ = obs::CollAlg::p2p;
  int task_;
  int cpu_;
  std::int64_t bytes_;
  std::uint64_t t0_ = 0;
};
#define HLSMPC_OBS_COLL(op, bytes)                      \
  CollScope obs_coll_scope_(*rt_, obs::CollOp::op, ctx, \
                            static_cast<std::int64_t>(bytes))
#define HLSMPC_OBS_COLL_ALG(alg) obs_coll_scope_.set_alg(alg)
#else
#define HLSMPC_OBS_COLL(op, bytes) (void)0
#define HLSMPC_OBS_COLL_ALG(alg) (void)(alg)
#endif

}  // namespace

void Comm::barrier(ult::TaskContext& ctx) {
  HLSMPC_OBS_COLL(barrier, 0);
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  if (n == 1) return;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->barrier_alg());
    shm_->barrier(ctx, me);
    return;
  }
  coll::dissemination(me, n, [&](int dst, int src) {
    Request r = irecv_ctx(ctx, nullptr, 0, src, tag, coll_context_);
    Request s = isend_ctx(ctx, nullptr, 0, dst, tag, coll_context_);
    wait(ctx, s);
    wait(ctx, r);
    return true;
  });
}

void Comm::bcast(ult::TaskContext& ctx, void* buf, std::size_t bytes,
                 int root) {
  HLSMPC_OBS_COLL(bcast, bytes);
  check_rank(root, "bcast");
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  if (n == 1) return;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(bytes));
    shm_->bcast(ctx, me, buf, bytes, root);
    return;
  }
  coll::binomial_bcast(
      me, n, root,
      [&](int child) {
        send_ctx(ctx, buf, bytes, child, tag, coll_context_);
        return true;
      },
      [&](int parent) {
        recv_ctx(ctx, buf, bytes, parent, tag, coll_context_, nullptr);
        return true;
      });
}

void Comm::reduce(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
                  std::size_t count, std::size_t elem_bytes,
                  const ReduceFn& fn, int root) {
  HLSMPC_OBS_COLL(reduce, count * elem_bytes);
  check_rank(root, "reduce");
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  const std::size_t bytes = count * elem_bytes;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(bytes));
    shm_->reduce(ctx, me, sendbuf, recvbuf, count, elem_bytes, fn, root);
    return;
  }

  // Local accumulator: rank 0 with root 0 may reduce in place into
  // recvbuf; everyone else uses a scratch buffer. sendbuf == recvbuf
  // (in-place reduction) is allowed.
  std::vector<std::byte> scratch;
  void* acc;
  if (me == 0 && root == 0 && recvbuf != nullptr) {
    acc = recvbuf;
  } else {
    scratch.resize(bytes);
    acc = scratch.data();
  }
  if (bytes > 0 && acc != sendbuf) std::memcpy(acc, sendbuf, bytes);

  // Ordered binomial fold to rank 0 (coll_algo.hpp); when root != 0 the
  // result takes one extra hop from rank 0 to the root.
  std::vector<std::byte> incoming(bytes);
  coll::ordered_fold(
      me, n, acc, incoming.data(), count, fn,
      [&](int parent) {
        send_ctx(ctx, acc, bytes, parent, tag, coll_context_);
        return true;
      },
      [&](int partner) {
        recv_ctx(ctx, incoming.data(), bytes, partner, tag, coll_context_,
                 nullptr);
        return true;
      });
  if (root != 0) {
    // Distinct (src, tag) from every tree message arriving at these two
    // ranks: rank 0 never sends inside the tree and the root's tree
    // partners all differ from rank 0.
    if (me == 0) {
      send_ctx(ctx, acc, bytes, root, tag, coll_context_);
    } else if (me == root) {
      recv_ctx(ctx, recvbuf, bytes, 0, tag, coll_context_, nullptr);
    }
  }
}

void Comm::allreduce(ult::TaskContext& ctx, const void* sendbuf,
                     void* recvbuf, std::size_t count, std::size_t elem_bytes,
                     const ReduceFn& fn) {
  HLSMPC_OBS_COLL(allreduce, count * elem_bytes);
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(count * elem_bytes));
    shm_->allreduce(ctx, rank(ctx), sendbuf, recvbuf, count, elem_bytes, fn);
    return;
  }
  reduce(ctx, sendbuf, recvbuf, count, elem_bytes, fn, 0);
  bcast(ctx, recvbuf, count * elem_bytes, 0);
}

void Comm::gather(ult::TaskContext& ctx, const void* sendbuf,
                  std::size_t bytes, void* recvbuf, int root) {
  HLSMPC_OBS_COLL(gather, bytes);
  std::vector<std::size_t> counts(static_cast<std::size_t>(size()), bytes);
  std::vector<std::size_t> displs(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    displs[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r) * bytes;
  }
  gatherv(ctx, sendbuf, bytes, recvbuf, counts, displs, root);
}

void Comm::gatherv(ult::TaskContext& ctx, const void* sendbuf,
                   std::size_t bytes, void* recvbuf,
                   std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, int root) {
  HLSMPC_OBS_COLL(gatherv, bytes);
  check_rank(root, "gatherv");
  const int me = rank(ctx);
  const int n = size();
  if (counts.size() != static_cast<std::size_t>(n) ||
      displs.size() != static_cast<std::size_t>(n)) {
    throw MpiError("gatherv: counts/displs must have one entry per rank");
  }
  const int tag = next_coll_tag(me);
  if (me == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    // Post every receive first so senders complete without serialising on
    // the root's loop order; the self block is a plain (elidable) copy.
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(n - 1));
    for (int r = 0; r < n; ++r) {
      if (r == me) continue;
      reqs.push_back(irecv_ctx(ctx, out + displs[static_cast<std::size_t>(r)],
                               counts[static_cast<std::size_t>(r)], r, tag,
                               coll_context_));
    }
    if (bytes != counts[static_cast<std::size_t>(me)]) {
      throw MpiError("gatherv: send size disagrees with counts[rank]");
    }
    void* self_dst = out + displs[static_cast<std::size_t>(me)];
    if (self_dst != sendbuf && bytes > 0) {
      std::memcpy(self_dst, sendbuf, bytes);
    } else if (self_dst == sendbuf) {
      rt_->stats().copies_elided.fetch_add(1, std::memory_order_relaxed);
    }
    for (Request& r : reqs) wait(ctx, r);
  } else {
    if (bytes != counts[static_cast<std::size_t>(me)]) {
      throw MpiError("gatherv: send size disagrees with counts[rank]");
    }
    send_ctx(ctx, sendbuf, bytes, root, tag, coll_context_);
  }
}

void Comm::scatter(ult::TaskContext& ctx, const void* sendbuf,
                   std::size_t bytes, void* recvbuf, int root) {
  HLSMPC_OBS_COLL(scatter, bytes);
  check_rank(root, "scatter");
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  if (me == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < n; ++r) {
      const std::byte* block = in + static_cast<std::size_t>(r) * bytes;
      if (r == me) {
        if (recvbuf != block && bytes > 0) std::memcpy(recvbuf, block, bytes);
      } else {
        send_ctx(ctx, block, bytes, r, tag, coll_context_);
      }
    }
  } else {
    recv_ctx(ctx, recvbuf, bytes, root, tag, coll_context_, nullptr);
  }
}

void Comm::allgather(ult::TaskContext& ctx, const void* sendbuf,
                     std::size_t bytes, void* recvbuf) {
  HLSMPC_OBS_COLL(allgather, bytes);
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(bytes));
    shm_->allgather(ctx, rank(ctx), sendbuf, bytes, recvbuf);
    return;
  }
  // Gather to rank 0, then broadcast the assembled vector. Two internal
  // collectives; per-rank tag counters advance identically on all ranks.
  gather(ctx, sendbuf, bytes, recvbuf, 0);
  bcast(ctx, recvbuf, bytes * static_cast<std::size_t>(size()), 0);
}

void Comm::alltoall(ult::TaskContext& ctx, const void* sendbuf,
                    std::size_t bytes_per_rank, void* recvbuf) {
  HLSMPC_OBS_COLL(alltoall, bytes_per_rank);
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(
        shm_->select(bytes_per_rank * static_cast<std::size_t>(n)));
    shm_->alltoall(ctx, me, sendbuf, bytes_per_rank, recvbuf);
    return;
  }
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  // Self block.
  if (bytes_per_rank > 0) {
    std::memcpy(out + static_cast<std::size_t>(me) * bytes_per_rank,
                in + static_cast<std::size_t>(me) * bytes_per_rank,
                bytes_per_rank);
  }
  // Rotated pairwise exchange: at step s talk to me+s (send) / me-s (recv).
  for (int step = 1; step < n; ++step) {
    const int dst = (me + step) % n;
    const int src = (me - step + n) % n;
    Request r = irecv_ctx(ctx,
                          out + static_cast<std::size_t>(src) * bytes_per_rank,
                          bytes_per_rank, src, tag, coll_context_);
    Request s = isend_ctx(ctx,
                          in + static_cast<std::size_t>(dst) * bytes_per_rank,
                          bytes_per_rank, dst, tag, coll_context_);
    wait(ctx, s);
    wait(ctx, r);
  }
}

void Comm::scan(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
                std::size_t count, std::size_t elem_bytes,
                const ReduceFn& fn) {
  HLSMPC_OBS_COLL(scan, count * elem_bytes);
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  const std::size_t bytes = count * elem_bytes;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(bytes));
    shm_->scan(ctx, me, sendbuf, recvbuf, count, elem_bytes, fn);
    return;
  }
  // Chain: receive the prefix of ranks [0, me), fold own value in AS THE
  // RIGHT OPERAND — prefix (+) own, in rank order — and pass the result
  // on. (Folding fn(own, prefix) computes own (+) prefix, which is only
  // the same thing for commutative operators.)
  if (me == 0) {
    if (bytes > 0 && recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, bytes);
  } else {
    // Receiving the prefix into recvbuf may clobber sendbuf (in-place
    // call); snapshot own contribution first if so.
    const void* own = sendbuf;
    std::vector<std::byte> own_copy;
    if (recvbuf == sendbuf && bytes > 0) {
      own_copy.assign(static_cast<const std::byte*>(sendbuf),
                      static_cast<const std::byte*>(sendbuf) + bytes);
      own = own_copy.data();
    }
    recv_ctx(ctx, recvbuf, bytes, me - 1, tag, coll_context_, nullptr);
    fn(recvbuf, own, count);
  }
  if (me + 1 < n) {
    send_ctx(ctx, recvbuf, bytes, me + 1, tag, coll_context_);
  }
}

void Comm::exscan(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
                  std::size_t count, std::size_t elem_bytes,
                  const ReduceFn& fn) {
  HLSMPC_OBS_COLL(exscan, count * elem_bytes);
  const int me = rank(ctx);
  const int n = size();
  const int tag = next_coll_tag(me);
  const std::size_t bytes = count * elem_bytes;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(bytes));
    shm_->exscan(ctx, me, sendbuf, recvbuf, count, elem_bytes, fn);
    return;
  }
  // Chain carrying the inclusive prefix; each rank hands its successor
  // prefix(0..me) but keeps prefix(0..me-1) for itself. Rank 0's recvbuf
  // is untouched (MPI_Exscan semantics). The inclusive prefix must fold as
  // prefix (+) own — own as the RIGHT operand — or non-commutative
  // operators see their contributions out of rank order.
  std::vector<std::byte> inclusive(bytes);
  if (me == 0) {
    if (bytes > 0) std::memcpy(inclusive.data(), sendbuf, bytes);
  } else {
    const void* own = sendbuf;
    std::vector<std::byte> own_copy;
    if (recvbuf == sendbuf && bytes > 0) {
      own_copy.assign(static_cast<const std::byte*>(sendbuf),
                      static_cast<const std::byte*>(sendbuf) + bytes);
      own = own_copy.data();
    }
    recv_ctx(ctx, recvbuf, bytes, me - 1, tag, coll_context_, nullptr);
    if (me + 1 < n) {
      if (bytes > 0) std::memcpy(inclusive.data(), recvbuf, bytes);
      fn(inclusive.data(), own, count);
    }
  }
  if (me + 1 < n) {
    send_ctx(ctx, inclusive.data(), bytes, me + 1, tag, coll_context_);
  }
}

void Comm::reduce_scatter_block(ult::TaskContext& ctx, const void* sendbuf,
                                void* recvbuf, std::size_t count,
                                std::size_t elem_bytes, const ReduceFn& fn) {
  HLSMPC_OBS_COLL(reduce_scatter, count * elem_bytes);
  const int me = rank(ctx);
  const int n = size();
  const std::size_t block = count * elem_bytes;
  if (shm_ != nullptr) {
    HLSMPC_OBS_COLL_ALG(shm_->select(block * static_cast<std::size_t>(n)));
    shm_->reduce_scatter_block(ctx, me, sendbuf, recvbuf, count, elem_bytes,
                               fn);
    return;
  }
  // Reduce the full vector to rank 0, then scatter the blocks. Simple and
  // correct at node scale; both phases use their own collective tags.
  std::vector<std::byte> full(me == 0 ? block * static_cast<std::size_t>(n)
                                      : 0);
  reduce(ctx, sendbuf, me == 0 ? full.data() : nullptr,
         count * static_cast<std::size_t>(n), elem_bytes, fn, 0);
  scatter(ctx, me == 0 ? full.data() : nullptr, block, recvbuf, 0);
}

}  // namespace hlsmpc::mpi
