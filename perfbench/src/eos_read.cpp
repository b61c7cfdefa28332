// eos_read: the EulerMHD / mesh-update shape. Every rank owns a block of
// mesh rows and updates each cell from a read-only equation-of-state
// table at seeded random indices, then trades a halo row with its ring
// neighbours and reduces a residual. The HLS arm shares the table once
// per node; the private arm gives every rank its own copy.
#include <unistd.h>

#include <bit>

#include "arms.hpp"

namespace perfbench {

namespace hls = hlsmpc::hls;
namespace mpi = hlsmpc::mpi;
using hlsmpc::memtrack::Buffer;
using hlsmpc::memtrack::Category;

namespace {

constexpr int kLookups = 4;  // table reads per cell per step

struct EosSizes {
  std::size_t l2_bytes = 0;
  std::size_t table_elems = 0;  ///< power of two: indices are masked
  int rows = 0, cols = 0;
  std::size_t table_bytes() const { return table_elems * sizeof(double); }
  std::size_t cells() const { return static_cast<std::size_t>(rows) * cols; }
};

EosSizes eos_sizes(const Args& a) {
  EosSizes s;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  s.l2_bytes = l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{1} << 20;
  // At least 4x one core's L2, so table reads leave the private caches.
  const std::size_t bytes =
      a.tiny ? std::size_t{64} << 10
             : std::bit_ceil(std::max(std::size_t{8} << 20, 4 * s.l2_bytes));
  s.table_elems = bytes / sizeof(double);
  s.rows = a.tiny ? 8 : 512;
  s.cols = a.tiny ? 64 : 512;
  return s;
}

struct EosState {
  EosSizes sz;
  std::uint64_t seed = 0;
  hls::ArrayVar<double> table;           // HLS arm
  std::vector<Buffer> own_table;         // private / sequential arms
  std::vector<Buffer> mesh, halo;        // per rank
};

void fill_table(double* t, const EosSizes& sz, std::uint64_t seed) {
  Rng rng(seed, 0, 1);
  for (std::size_t i = 0; i < sz.table_elems; ++i) t[i] = rng.unit();
}

void eos_step(EosState& st, const double* tab, mpi::Comm& w,
              hlsmpc::ult::TaskContext& ctx, Tracer* tr, int rank,
              std::int64_t step, std::uint64_t& sum) {
  const EosSizes& sz = st.sz;
  double* u = st.mesh[static_cast<std::size_t>(rank)].as<double>();
  double* halo = st.halo[static_cast<std::size_t>(rank)].as<double>();
  {
    Span k(tr, rank, SpanName::kernel);
    Rng rng(st.seed, static_cast<std::uint64_t>(rank) + 16,
            static_cast<std::uint64_t>(step));
    // Each cell looks up kLookups table entries (the EOS quantities it
    // needs) at seeded random indices.
    const std::uint64_t mask = sz.table_elems - 1;
    for (std::size_t c = 0; c < sz.cells(); ++c) {
      double eos = 0;
      for (int q = 0; q < kLookups; ++q) eos += tab[rng.next() & mask];
      u[c] = 0.5 * u[c] + (0.5 / kLookups) * eos;
    }
  }
  const int n = w.size();
  const std::size_t row_bytes =
      static_cast<std::size_t>(sz.cols) * sizeof(double);
  {
    Span p(tr, rank, SpanName::mpi_p2p);
    w.sendrecv(ctx, u, row_bytes, (rank + 1) % n, 7, halo, row_bytes,
               (rank + n - 1) % n, 7);
  }
  double local = 0;
  {
    Span k(tr, rank, SpanName::kernel);
    double* last = u + (sz.rows - 1) * static_cast<std::size_t>(sz.cols);
    for (int j = 0; j < sz.cols; ++j) last[j] = 0.5 * (last[j] + halo[j]);
    for (std::size_t c = 0; c < sz.cells(); ++c) local += u[c];
  }
  double global = 0;
  {
    Span c(tr, rank, SpanName::mpi_allreduce);
    global = w.allreduce_value(ctx, local, mpi::Op::sum);
  }
  {
    Span b(tr, rank, SpanName::mpi_barrier);
    w.barrier(ctx);
  }
  sum = mix(sum, global);
}

std::unique_ptr<Arm> make_eos_arm(const Args& a, const EosSizes& sz,
                                  ArmKind kind, Tracer* tr) {
  const bool shared = kind == ArmKind::hls;
  const int ranks = kind == ArmKind::seq ? 1 : 4;
  const hlsmpc::topo::Machine m = kind == ArmKind::seq
                                      ? hlsmpc::topo::Machine::generic(1, 1)
                                      : hlsmpc::topo::Machine::generic(2, 2);
  auto arm = std::make_unique<Arm>();
  arm->sums.assign(static_cast<std::size_t>(ranks), 0);
  hlsmpc::mpc::NodeOptions o;
  o.mpi = node_mpi_options(ranks, false, a.max_threads);
  arm->run.node = std::make_unique<hlsmpc::mpc::Node>(m, o);
  hlsmpc::mpc::Node& node = *arm->run.node;

  auto st = std::make_shared<EosState>();
  st->sz = sz;
  st->seed = a.seed;
  if (shared) {
    hls::ModuleBuilder mb(node.hls_rt().registry(), "eos");
    st->table = hls::add_array<double>(mb, "table", sz.table_elems,
                                       hlsmpc::topo::node_scope());
    mb.commit();
  }
  for (int r = 0; r < ranks; ++r) {
    auto& t = node.tracker();
    if (!shared) st->own_table.emplace_back(t, Category::app, sz.table_bytes());
    st->mesh.emplace_back(t, Category::app, sz.cells() * sizeof(double));
    st->halo.emplace_back(t, Category::app, sz.cols * sizeof(double));
  }

  node.run([&](mpi::Comm& w, hls::TaskView& v) {
    const int rank = w.rank(v.context());
    Span s(tr, rank, SpanName::setup);
    if (shared) {
      double* t = nullptr;
      {
        Span f(tr, rank, SpanName::hls_first_touch);
        t = v.get(st->table);
      }
      Span i(tr, rank, SpanName::hls_single_init);
      v.single({st->table.handle()}, [&] {
        Span k(tr, rank, SpanName::kernel);
        fill_table(t, sz, a.seed);
      });
    } else {
      Span k(tr, rank, SpanName::kernel);
      fill_table(st->own_table[static_cast<std::size_t>(rank)].as<double>(),
                 sz, a.seed);
    }
    Span k(tr, rank, SpanName::kernel);
    Rng rng(a.seed, static_cast<std::uint64_t>(rank) + 16, ~0ULL);
    double* u = st->mesh[static_cast<std::size_t>(rank)].as<double>();
    for (std::size_t c = 0; c < sz.cells(); ++c) u[c] = rng.unit();
  });

  arm->step = [st, shared](mpi::Comm& w, hls::TaskView& v, Tracer* tr,
                           int rank, std::int64_t step, std::uint64_t& sum) {
    const double* tab = nullptr;
    if (shared) {
      Span g(tr, rank, SpanName::hls_get_addr);
      tab = v.get(st->table);
    } else {
      tab = st->own_table[static_cast<std::size_t>(rank)].as<double>();
    }
    eos_step(*st, tab, w, v.context(), tr, rank, step, sum);
  };
  return arm;
}

}  // namespace

Result run_eos_read(const Args& a) {
  const EosSizes sz = eos_sizes(a);
  Result r;
  r.info["table_bytes"] = std::to_string(sz.table_bytes());
  r.info["l2_bytes"] = std::to_string(sz.l2_bytes);
  r.info["mesh_cells_per_rank"] = std::to_string(sz.cells());
  CompareSpec spec;
  spec.make = [&](ArmKind k, Tracer* tr) { return make_eos_arm(a, sz, k, tr); };
  spec.ranks = 4;
  spec.instances = 1;
  spec.table_bytes = sz.table_bytes();
  spec.warmup_steps = a.tiny ? 20 : 50;
  // Per cell: kLookups table reads summed (one add each), the update (3
  // flops; mesh read + write) and the residual sum (1 flop, mesh read);
  // per halo column: the mix (2 flops; halo read, mesh read + write).
  const double cells = static_cast<double>(sz.cells());
  spec.kernel_flops_per_step =
      spec.ranks * ((kLookups + 4.0) * cells + 2.0 * sz.cols);
  spec.kernel_bytes_per_step =
      spec.ranks * sizeof(double) * ((kLookups + 3.0) * cells + 3.0 * sz.cols);
  run_compare(a, r, spec);
  return r;
}

}  // namespace perfbench
