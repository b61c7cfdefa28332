// table_update: the "update" variant of the paper's Fig. 3 and Table I.
// Every step one task per numa instance rewrites a shared table inside
// `single`, every rank reads it at seeded random indices, and an HLS
// barrier closes the step. In the private arm each rank rewrites and
// reads its own copy and an MPI barrier closes the step.
#include "arms.hpp"

namespace perfbench {

namespace hls = hlsmpc::hls;
namespace mpi = hlsmpc::mpi;
using hlsmpc::memtrack::Buffer;
using hlsmpc::memtrack::Category;

namespace {

constexpr int kRanks = 16;
constexpr int kSockets = 2;  // numa scope: one instance per socket

struct UpdateSizes {
  std::size_t table_elems = 0;  ///< power of two: indices are masked
  int reads = 0;                ///< per rank per step
  std::size_t table_bytes() const { return table_elems * sizeof(double); }
};

struct UpdateState {
  UpdateSizes sz;
  std::uint64_t seed = 0;
  hls::ArrayVar<double> table;  // HLS arm
  hls::ScopeSet scope;          // HLS arm: the table's single/barrier scope
  std::vector<Buffer> own;      // private / sequential arms
};

/// The table's contents at `step`, the same on every arm.
void rewrite(double* t, const UpdateSizes& sz, std::uint64_t seed,
             std::int64_t step) {
  const std::uint64_t base =
      splitmix64(seed ^ static_cast<std::uint64_t>(step));
  for (std::size_t i = 0; i < sz.table_elems; ++i) {
    t[i] = static_cast<double>((base + i * 0x9e3779b97f4a7c15ULL) >> 11) *
           0x1.0p-53;
  }
}

double read_table(const double* t, const UpdateSizes& sz, std::uint64_t seed,
                  int rank, std::int64_t step) {
  Rng rng(seed, static_cast<std::uint64_t>(rank) + 64,
          static_cast<std::uint64_t>(step));
  const std::uint64_t mask = sz.table_elems - 1;
  double acc = 0;
  for (int i = 0; i < sz.reads; ++i) acc += t[rng.next() & mask];
  return acc;
}

std::unique_ptr<Arm> make_update_arm(const Args& a, const UpdateSizes& sz,
                                     ArmKind kind, Tracer* tr) {
  const bool shared = kind == ArmKind::hls;
  const int ranks = kind == ArmKind::seq ? 1 : kRanks;
  const hlsmpc::topo::Machine m =
      kind == ArmKind::seq
          ? hlsmpc::topo::Machine::generic(1, 1)
          : hlsmpc::topo::Machine::generic(kSockets, kRanks / kSockets);
  auto arm = std::make_unique<Arm>();
  arm->sums.assign(static_cast<std::size_t>(ranks), 0);
  hlsmpc::mpc::NodeOptions o;
  o.mpi = node_mpi_options(ranks, ranks > 1, a.max_threads);
  arm->run.node = std::make_unique<hlsmpc::mpc::Node>(m, o);
  hlsmpc::mpc::Node& node = *arm->run.node;

  auto st = std::make_shared<UpdateState>();
  st->sz = sz;
  st->seed = a.seed;
  if (shared) {
    hls::ModuleBuilder mb(node.hls_rt().registry(), "update");
    st->table = hls::add_array<double>(mb, "table", sz.table_elems,
                                       hlsmpc::topo::numa_scope());
    mb.commit();
    st->scope = hls::ScopeSet(node.hls_rt(), {st->table.handle()});
  } else {
    for (int r = 0; r < ranks; ++r) {
      st->own.emplace_back(node.tracker(), Category::app, sz.table_bytes());
    }
  }

  node.run([&](mpi::Comm& w, hls::TaskView& v) {
    const int rank = w.rank(v.context());
    Span s(tr, rank, SpanName::setup);
    if (!shared) {
      Span k(tr, rank, SpanName::kernel);
      rewrite(st->own[static_cast<std::size_t>(rank)].as<double>(), sz,
              a.seed, -1);
      return;
    }
    double* t = nullptr;
    {
      Span f(tr, rank, SpanName::hls_first_touch);
      t = v.get(st->table);
    }
    Span i(tr, rank, SpanName::hls_single_init);
    v.single(st->scope, [&] {
      Span k(tr, rank, SpanName::kernel);
      rewrite(t, sz, a.seed, -1);
    });
  });

  if (shared) {
    arm->step = [st](mpi::Comm&, hls::TaskView& v, Tracer* tr, int rank,
                     std::int64_t step, std::uint64_t& sum) {
      double* t = nullptr;
      {
        Span g(tr, rank, SpanName::hls_get_addr);
        t = v.get(st->table);
      }
      {
        Span s(tr, rank, SpanName::hls_single);
        v.single(st->scope, [&] {
          Span e(tr, rank, SpanName::hls_single_exec);
          Span k(tr, rank, SpanName::kernel);
          rewrite(t, st->sz, st->seed, step);
        });
      }
      double acc = 0;
      {
        Span k(tr, rank, SpanName::kernel);
        acc = read_table(t, st->sz, st->seed, rank, step);
      }
      {
        Span b(tr, rank, SpanName::hls_barrier);
        v.barrier(st->scope);
      }
      sum = mix(sum, acc);
    };
  } else {
    arm->step = [st](mpi::Comm& w, hls::TaskView& v, Tracer* tr, int rank,
                     std::int64_t step, std::uint64_t& sum) {
      double* t = st->own[static_cast<std::size_t>(rank)].as<double>();
      double acc = 0;
      {
        Span k(tr, rank, SpanName::kernel);
        rewrite(t, st->sz, st->seed, step);
        acc = read_table(t, st->sz, st->seed, rank, step);
      }
      {
        Span b(tr, rank, SpanName::mpi_barrier);
        w.barrier(v.context());
      }
      sum = mix(sum, acc);
    };
  }
  return arm;
}

}  // namespace

Result run_table_update(const Args& a) {
  UpdateSizes sz;
  sz.table_elems = a.tiny ? 2048 : 32768;
  sz.reads = a.tiny ? 256 : 4096;
  Result r;
  r.info["table_bytes"] = std::to_string(sz.table_bytes());
  r.info["reads_per_rank_step"] = std::to_string(sz.reads);
  CompareSpec spec;
  spec.make = [&](ArmKind k, Tracer* tr) {
    return make_update_arm(a, sz, k, tr);
  };
  spec.ranks = kRanks;
  spec.instances = kSockets;
  spec.table_bytes = sz.table_bytes();
  spec.warmup_steps = a.tiny ? 50 : 500;
  // Rewrite: 2 flops and one store per element, once per instance; reads:
  // one add and one load per read, on every rank.
  const double elems = static_cast<double>(sz.table_elems);
  spec.kernel_flops_per_step = kSockets * 2 * elems + kRanks * sz.reads;
  spec.kernel_bytes_per_step =
      sizeof(double) * (kSockets * elems + kRanks * sz.reads);
  run_compare(a, r, spec);
  return r;
}

}  // namespace perfbench
