// Simulated multi-node cluster with node-leader hierarchical collectives.
//
// The MPI+MPI hierarchical structure of Eleliemy & Ciorba (PAPERS.md)
// composed from this repo's two tiers:
//
//   intra-node tier: each node is a full mpi::Runtime — one address
//     space, ShmCollEngine collectives, ShmTransport p2p (PR 5/7).
//   inter-node tier: node leaders (local rank 0) exchange over a
//     Transport — here the deterministic SimFabricTransport, so
//     multi-node schedules are explorable with src/check's executor.
//
// Global rank g of a cluster with R ranks per node lives on node g/R as
// local rank g%R (node-major order). All nodes are hosted in this
// process: node runtimes provide the local tier, while their run() is
// never called — the cluster drives one executor with nranks() tasks and
// hands each a per-call local context when it enters node-level calls.
//
// Fold-order contract (comm.hpp): contributions combine in ascending
// GLOBAL rank order with the accumulator as the left operand. Node-major
// rank order factors that fold exactly: the local tier produces per-node
// partials P_n = v_{nR} (+) ... (+) v_{nR+R-1} in local rank order, and
// the leader tier folds the partials of the LIVE nodes with
// coll::ordered_fold (coll_algo.hpp holds the order argument). It
// survives shrinking because ascending position in the live view IS
// ascending node id.
//
// Dead-node supervision and recovery (PR 9): the communicator carries a
// LIVE VIEW — the ascending list of member nodes plus an epoch — and
// every collective runs over the view it snapshots at entry. A leader
// whose fabric exchange fails declares the peer node unreachable
// (SimFabricTransport::kill_node) and pushes on; co-resident ranks decide
// death together at fused NODE GATES (entry and exit of every
// collective): a local barrier, local rank 0 publishing the fabric's
// poison verdict, a second barrier, then every rank of the node reads the
// same verdict and they all throw NodeDeadError together or all proceed.
// The gates are what make a death recoverable — no rank can strand its
// co-residents inside a node-level phase, so after everyone has thrown,
// the node runtimes are quiescent and survivors may run shrink().
//
// shrink() (collective over survivors) runs the coordinator agreement of
// mpi/recover.hpp on the leader tier, installs the shrunken view
// (epoch+1), heals the fabric's poison, resets the node's collective
// control blocks and restarts collective tag numbering under the new
// epoch. respawn() re-creates a dead node's runtime between run()s and
// readmits it into the view, so a warm-restarted replacement (typically
// restored from an hls checkpoint) rejoins the job.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mpi/retry.hpp"
#include "mpi/runtime.hpp"
#include "mpi/sim_fabric.hpp"

namespace hlsmpc::mpi {

class SimCluster;

struct ClusterOptions {
  int nnodes = 2;
  int ranks_per_node = 1;
  /// Executor hosting the cluster-global tasks (SimCluster::run).
  ExecutorKind executor = ExecutorKind::thread;
  int fiber_workers = 0;
  /// Per-node runtime tuning.
  BufferConfig buffers;
  CollConfig coll;
  /// Fabric capacity bounds (0 = unlimited).
  TransportLimits fabric_limits;
  /// Transient-failure budget of the fabric's flapping links.
  RetryPolicy fabric_retry;
  /// Per-round receive deadline of the shrink agreement. Expiry DECLARES
  /// the silent peer dead (recover.hpp), so keep it far above the
  /// fabric's round-trip time; tests shorten it to keep timeouts cheap.
  std::chrono::milliseconds shrink_round_timeout{2000};
  /// Cluster-level observability recorder; task ids are cluster-global
  /// ranks. Node runtimes record nothing (their local ids would collide).
  obs::Recorder* obs = nullptr;
};

/// What ClusterComm::shrink() agreed on, identical on every survivor.
struct ShrinkReport {
  /// Epoch of the freshly installed view.
  std::uint64_t epoch = 0;
  /// Nodes the agreement excluded (bit n = node n), cumulative over the
  /// members the entering view still contained.
  std::uint64_t dead_mask = 0;
  /// Agreement attempts used (1 = no coordinator failed over).
  int attempts = 1;
  /// Surviving member nodes, ascending.
  std::vector<int> live;
};

/// The cluster-global communicator: one object shared by all global
/// ranks. Global p2p rides the fabric; collectives are hierarchical
/// (local tier + leader tier, see the file comment) and run over the
/// live view snapshot taken at entry.
class ClusterComm {
 public:
  ClusterComm(SimCluster& cluster);
  ClusterComm(const ClusterComm&) = delete;
  ClusterComm& operator=(const ClusterComm&) = delete;

  /// Ranks currently in the job: live nodes times ranks_per_node (the
  /// full world while nothing died; shrinks after a recovery).
  int size() const {
    std::lock_guard<std::mutex> lk(view_mu_);
    return static_cast<int>(view_->live.size()) * rpn_;
  }
  int nnodes() const { return nnodes_; }
  int ranks_per_node() const { return rpn_; }
  /// Cluster-global rank of the calling task (world numbering: ranks keep
  /// their ids across shrinks, the view only decides who participates).
  int rank(const ult::TaskContext& ctx) const { return ctx.task_id(); }
  int node_of(int grank) const { return grank / rpn_; }
  int local_of(int grank) const { return grank % rpn_; }
  int leader_of(int node) const { return node * rpn_; }
  /// The intra-node world communicator of `node` (local rank space).
  Comm& node_comm(int node) const;
  SimFabricTransport& fabric() const { return *fabric_; }
  /// First node observed unreachable, or -1 while all are alive.
  int first_dead_node() const { return fabric_->first_dead_node(); }
  /// Epoch of the current live view (bumped by shrink() and readmit()).
  std::uint64_t view_epoch() const {
    std::lock_guard<std::mutex> lk(view_mu_);
    return view_->epoch;
  }
  /// Member nodes of the current live view, ascending.
  std::vector<int> live_nodes() const {
    std::lock_guard<std::mutex> lk(view_mu_);
    return view_->live;
  }

  // ---- global point to point (global ranks, over the fabric) ----
  void send(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
            int dst, int tag);
  void recv(ult::TaskContext& ctx, void* buf, std::size_t capacity, int src,
            int tag, Status* status = nullptr);

  // ---- hierarchical collectives (global ranks, live view) ----
  void barrier(ult::TaskContext& ctx);
  void bcast(ult::TaskContext& ctx, void* buf, std::size_t bytes, int root);
  /// recvbuf is significant at the global root only.
  void reduce(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
              std::size_t count, std::size_t elem_bytes, const ReduceFn& fn,
              int root);
  void allreduce(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
                 std::size_t count, std::size_t elem_bytes,
                 const ReduceFn& fn);
  /// recvbuf holds size()*bytes: the blocks of the LIVE ranks, compacted
  /// in ascending global-rank order (dead nodes leave no gap).
  void allgather(ult::TaskContext& ctx, const void* sendbuf,
                 std::size_t bytes, void* recvbuf);

  /// Recover from a NodeDeadError: collective over every rank of every
  /// surviving node (the dead node's ranks have unwound through the
  /// gates). Leaders run the recover.hpp agreement on the set of dead
  /// members, the shrunken view (epoch+1) is installed, the fabric poison
  /// healed, node collective state reset and collective tags restarted
  /// under the new epoch. Throws NodeDeadError if THIS node was declared
  /// dead by the survivors (false suspicion counts as death — rejoin via
  /// respawn), MpiError if the agreement could not converge.
  ///
  /// Resuming after shrink(): the transport level is clean (epoch-tagged
  /// collectives cannot match stale traffic), but a collective that was
  /// in flight when the death hit may have completed on some survivors
  /// and not others — as in ULFM, agreeing on application progress (e.g.
  /// bcasting an iteration counter) is the caller's job.
  ShrinkReport shrink(ult::TaskContext& ctx);
  /// Readmit `node` after SimCluster::respawn re-created its runtime:
  /// re-inserts it into the view (epoch+1), rebinds its node communicator
  /// and restarts collective tag numbering. Quiescent only (between
  /// run()s).
  void readmit(int node);

  // ---- typed convenience ----
  template <typename T>
  T bcast_value(ult::TaskContext& ctx, T v, int root) {
    bcast(ctx, &v, sizeof(T), root);
    return v;
  }
  template <typename T>
  void allreduce(ult::TaskContext& ctx, std::span<const T> in,
                 std::span<T> out, Op op) {
    allreduce(ctx, in.data(), out.data(), in.size(), sizeof(T),
              make_reduce_fn<T>(op));
  }
  template <typename T>
  T allreduce_value(ult::TaskContext& ctx, const T& v, Op op) {
    T out{};
    allreduce(ctx, &v, &out, 1, sizeof(T), make_reduce_fn<T>(op));
    return out;
  }

 private:
  /// The membership a collective runs over: ascending live node ids plus
  /// the epoch namespacing its collective tags. Immutable once published;
  /// swapped under view_mu_ by shrink()/readmit().
  struct View {
    std::uint64_t epoch = 0;
    std::vector<int> live;
  };
  /// Per-node fused-gate verdict slot (own cache line: every rank of the
  /// node polls it between the gate's barriers).
  struct alignas(64) GateSlot {
    std::atomic<int> verdict{-1};
    /// Bumped by the node's local rank 0 inside shrink() once the
    /// engine reset is complete; co-resident ranks spin on it before
    /// touching the engine again. reset_collectives() is quiescent-only,
    /// so releasing the node through the engine itself would race.
    std::atomic<std::uint32_t> reset_gen{0};
  };

  std::shared_ptr<const View> snapshot_view() const {
    std::lock_guard<std::mutex> lk(view_mu_);
    return view_;
  }
  /// Position of `node` in the view's live list, or -1 when excluded.
  static int pos_of(const View& v, int node);
  /// Fused node gate: local barrier, local rank 0 publishes the fabric's
  /// poison verdict, local barrier, everyone reads it — so all ranks of a
  /// node throw NodeDeadError together or all proceed together.
  void node_gate(ult::TaskContext& lctx, Comm& nc, int node,
                 const char* what);
  /// Leader-tier exchange primitives with dead-node containment: a
  /// failure records/declares the peer node unreachable and returns
  /// false; callers push on (subsequent fabric ops fail fast against the
  /// poisoned fabric) so local phases still run and nobody strands
  /// co-resident ranks.
  bool coll_send(ult::TaskContext& ctx, int g_me, int dst_g, const void* buf,
                 std::size_t bytes, int tag);
  bool coll_recv(ult::TaskContext& ctx, int g_me, int src_g, void* buf,
                 std::size_t capacity, int tag);
  /// Per-call view of a cluster-global task as a node-local one:
  /// node-level Comm calls derive the rank from ctx.task_id(), which must
  /// be the LOCAL id there. Scheduling behaviour (yield, cooperativeness,
  /// schedule hook) forwards to the real context, so blocking local
  /// collectives remain explorable under the deterministic executor — its
  /// hook tracks the running fiber itself and ignores the context object's
  /// identity.
  class LocalCtx final : public ult::TaskContext {
   public:
    LocalCtx(ult::TaskContext& outer, int local_id) : outer_(&outer) {
      set_task_id(local_id);
      set_cpu(outer.cpu());
      set_schedule_hook(outer.schedule_hook());
    }
    void yield() override { outer_->yield(); }
    bool cooperative() const override { return outer_->cooperative(); }

   private:
    ult::TaskContext* outer_;
  };
  /// A hierarchical collective that enter() has admitted.
  struct CollCall {
    ult::TaskContext& ctx;             // the caller's global context
    LocalCtx lctx;                     // the same task as a local rank
    Comm& nc;                          // the node's communicator
    std::shared_ptr<const View> view;  // membership snapshot at entry
    const char* what;                  // error prefix ("cluster bcast")
    int g;                             // global rank
    int node;
    int local;     // local rank; 0 is the node's leader
    int pos;       // the node's live position
    int npos;      // live nodes
    int root_pos;  // root node's live position (-1: unrooted)
    int tag;
  };
  /// The one entry path of barrier/bcast/reduce/allreduce/allgather:
  /// bad-root MpiError, collective count, view snapshot, tag, own node and
  /// root node exclusion checks, then the opening node gate. `what`
  /// ("cluster bcast") prefixes every error.
  CollCall enter(ult::TaskContext& ctx, const char* what,
                 std::optional<int> root);
  /// The closing node gate of a collective enter() admitted.
  void leave(CollCall& c);
  /// Leader-tier endpoint of the coll_algo.hpp schedules: exchange `buf`
  /// with the leader of live position `p` over coll_send / coll_recv.
  bool to_leader(const CollCall& c, int p, const void* buf,
                 std::size_t bytes);
  bool from_leader(const CollCall& c, int p, void* buf, std::size_t bytes);
  /// Fresh tag for the caller's next collective, namespaced by the view
  /// epoch (all ranks enter collectives in the same order and epochs
  /// change only at collectives' edges, so per-rank counters agree and
  /// pre-shrink stragglers can never match post-shrink collectives).
  int next_coll_tag(int grank, std::uint64_t epoch);
  /// Swap in the post-agreement view; first leader wins (keyed on the
  /// epoch the agreement ran under), later leaders see the installed one.
  void install_view(std::uint64_t expected_epoch, std::uint64_t dead_mask);
  void count_coll(int grank);

  SimCluster* cluster_;
  SimFabricTransport* fabric_;
  std::vector<Comm*> node_world_;
  int nnodes_ = 0;
  int rpn_ = 0;
  int nranks_ = 0;
  std::vector<std::uint32_t> coll_seq_;  // per global rank
  mutable std::mutex view_mu_;
  std::shared_ptr<const View> view_;
  std::unique_ptr<GateSlot[]> gate_;
  std::chrono::milliseconds shrink_round_timeout_{2000};
  obs::Recorder* obs_ = nullptr;
};

class SimCluster {
 public:
  explicit SimCluster(ClusterOptions opts);
  ~SimCluster();
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  int nnodes() const { return opts_.nnodes; }
  int ranks_per_node() const { return opts_.ranks_per_node; }
  int nranks() const { return opts_.nnodes * opts_.ranks_per_node; }
  SimFabricTransport& fabric() { return *fabric_; }
  Runtime& node_runtime(int node);
  ClusterComm& comm() { return *comm_; }
  const ClusterOptions& options() const { return opts_; }
  /// The cluster-level recorder from ClusterOptions (may be null).
  obs::Recorder* obs() const { return opts_.obs; }

  /// Replace a dead node with a fresh runtime (the simulated analogue of
  /// spawning a replacement process) and readmit it into the
  /// communicator's view. Quiescent only — call between run()s; the
  /// replacement starts blank, warm restarts rehydrate it from an hls
  /// checkpoint inside the next run. Fault site "cluster:respawn"
  /// (operand = node) models the replacement failing to launch. Throws
  /// MpiError when `node` is not dead.
  void respawn(int node);

  using Body = std::function<void(ClusterComm&, ult::TaskContext&)>;
  /// Run `body` once per cluster-global rank on the cluster's executor.
  void run(const Body& body);
  /// Same, on a caller-provided executor — check::DeterministicExecutor
  /// here makes the whole multi-node schedule explorable/replayable.
  void run_on(ult::Executor& exec, const Body& body);

 private:
  ClusterOptions opts_;
  topo::Machine machine_;
  std::vector<std::unique_ptr<Runtime>> nodes_;
  std::unique_ptr<SimFabricTransport> fabric_;
  std::unique_ptr<ult::Executor> executor_;
  std::unique_ptr<ClusterComm> comm_;
};

}  // namespace hlsmpc::mpi
