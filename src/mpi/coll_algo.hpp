// The one schedule core of the tree collectives: the p2p Comm algorithms,
// the ClusterComm leader tier and recover::survivor_allreduce all run the
// templates below, each over its own send/recv surface.
//
// Positions are [0, n). A caller maps a position to its peer (a rank, a
// live node's leader, a survivor) inside its callables, and every
// callable returns false on failure. The core has no error policy and
// never branches on who calls it: on a false return it records not-ok
// and keeps going (skipping the fold of a failed receive), so a caller
// that contains failures still runs its later phases, and a caller that
// throws from its callables never returns false. The function result is
// that not-ok record.
#pragma once

#include <cstddef>

namespace hlsmpc::mpi::coll {

/// Dissemination barrier: at `step` (a power of two, 0 < step < n) rank
/// `me` notifies dst and hears from src; after ceil(log2 n) steps every
/// rank has transitively heard from every other rank. The two are exact
/// mirrors — dissemination_src(dissemination_dst(me)) == me — which is
/// what makes every send matched by exactly one posted receive. (An
/// earlier spelling `(me - step % n + n) % n` parsed as `me - (step % n)`
/// and was only accidentally correct because step < n.)
constexpr int dissemination_dst(int me, int step, int n) {
  return (me + step) % n;
}
constexpr int dissemination_src(int me, int step, int n) {
  return (me - step + n) % n;
}

/// One `exchange(dst, src)` per dissemination step: notify dst, hear from
/// src. ceil(log2 n) calls per position.
template <typename Exchange>
bool dissemination(int pos, int n, Exchange&& exchange) {
  bool ok = true;
  for (int step = 1; step < n; step <<= 1) {
    if (!exchange(dissemination_dst(pos, step, n),
                  dissemination_src(pos, step, n))) {
      ok = false;
    }
  }
  return ok;
}

/// Binomial reduce to position 0 in TRUE position order. `send(peer)`
/// ships the caller's `acc`; `recv(peer)` fills `scratch`, which is then
/// folded as fn(acc, scratch, count).
///
/// Fold-order argument (the one copy; DESIGN §11 "Reduction operand
/// order" cites it). ReduceFn folds with the accumulator as the LEFT
/// operand, and every reduction must produce v_0 (+) v_1 (+) ... (+)
/// v_{n-1} for an operator that is associative but not commutative.
/// Invariant: entering round `mask`, position p (p % mask == 0) holds the
/// fold of the contiguous range [p, min(p + mask, n)). A position with
/// bit `mask` clear receives from p + mask, whose range [p + mask,
/// min(p + 2*mask, n)) starts right where its own ends, and applies it as
/// the RIGHT operand, which extends the range in order. A position with
/// bit `mask` set sends its range to p - mask and leaves the schedule.
/// Position 0 ends with the ascending fold of [0, n), using associativity
/// only. Rotating the tree around a root (as a bcast may) would fold
/// v_root (+) ... (+) v_{n-1} (+) v_0 (+) ..., which is wrong for
/// non-commutative operators; callers that need the result elsewhere take
/// one extra hop from position 0. Callers whose positions are not ranks
/// (leader tier: live nodes; survivor_allreduce: survivors) list their
/// members in ascending order, so ascending position is ascending rank.
template <typename Fn, typename Send, typename Recv>
bool ordered_fold(int pos, int n, void* acc, const void* scratch,
                  std::size_t count, const Fn& fn, Send&& send, Recv&& recv) {
  bool ok = true;
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((pos & mask) != 0) {
      if (!send(pos - mask)) ok = false;
      break;
    }
    if (pos + mask < n) {
      if (recv(pos + mask)) {
        fn(acc, scratch, count);
      } else {
        ok = false;
      }
    }
  }
  return ok;
}

/// Binomial bcast from `root` over virtual positions rotated so root is
/// virtual 0 (legal here: a bcast has no fold order to preserve). Each
/// position receives once from its parent, then sends to its children in
/// descending mask order. The callables get true positions; the caller's
/// buffer is theirs to capture.
template <typename Send, typename Recv>
bool binomial_bcast(int pos, int n, int root, Send&& send, Recv&& recv) {
  const int vpos = (pos - root + n) % n;
  bool ok = true;
  int mask = 1;
  while (mask < n) {
    if ((vpos & mask) != 0) {
      if (!recv((vpos - mask + root) % n)) ok = false;
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vpos + mask < n) {
      if (!send((vpos + mask + root) % n)) ok = false;
    }
  }
  return ok;
}

}  // namespace hlsmpc::mpi::coll
