// Span recorder of the traced run.
//
// Spans wrap the benchmark's calls into each layer's public functions.
// Each rank owns one lane (ranks may be fibers that change kernel thread,
// so lanes are keyed by rank, not by thread) and is its lane's only
// writer; lanes are read after the ranks have joined. A span records its
// name, rank, step, start, end and parent span; a span's self time is its
// duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  block,            ///< one rank's loop over the steps of a block (root)
  step,             ///< one step: top of loop to closing collective's return
  setup,            ///< one rank's part of set-up (root)
  kernel,           ///< the workload's own compute
  check,            ///< output verification done inside a step
  hls_get_addr,     ///< hls::TaskView::get
  hls_first_touch,  ///< the first (cold) get of a variable
  hls_single,       ///< hls::TaskView::single, whole call
  hls_single_exec,  ///< the elected task's block inside single
  hls_single_init,  ///< the set-up single that fills shared state
  hls_barrier,      ///< hls::TaskView::barrier
  hls_page_access,  ///< StorageManager::get_addr priced by the page cache
  hls_flush,        ///< hls::Runtime::tier_flush
  hls_ckpt_save,    ///< hls::Runtime::checkpoint_incremental
  hls_ckpt_restore, ///< hls::Runtime::restore
  mpi_p2p,          ///< Comm::sendrecv / send / recv
  mpi_allreduce,    ///< Comm / ClusterComm allreduce
  mpi_allgather,    ///< Comm / ClusterComm allgather
  mpi_barrier,      ///< Comm / ClusterComm barrier
  net_p2p,          ///< ClusterComm::send / recv over the fabric
  kCount
};
inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);

const char* to_string(SpanName n);

struct SpanRec {
  std::uint64_t t0 = 0;  ///< ns since the tracer's epoch
  std::uint64_t t1 = 0;
  std::int64_t step = -1;
  std::int32_t parent = -1;  ///< index in the same lane, -1 for a root
  SpanName name = SpanName::block;
};

class Tracer {
 public:
  explicit Tracer(int nranks);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  int open(int rank, SpanName n);
  void close(int rank, int idx);
  void set_step(int rank, std::int64_t step) {
    lanes_[static_cast<std::size_t>(rank)].step = step;
  }

  int nranks() const { return static_cast<int>(lanes_.size()); }
  /// Spans recorded so far; read only while the ranks are joined.
  std::size_t size() const;
  const std::vector<SpanRec>& spans(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].spans;
  }

 private:
  struct alignas(64) Lane {
    std::vector<SpanRec> spans;
    std::int32_t top = -1;
    std::int64_t step = -1;
  };
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Span {
 public:
  Span(Tracer* t, int rank, SpanName n)
      : t_(t), rank_(rank), idx_(t != nullptr ? t->open(rank, n) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(rank_, idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int rank_;
  int idx_;
};

struct TraceSummary {
  double total_s[kNumSpanNames] = {};
  double self_s[kNumSpanNames] = {};
  std::uint64_t count[kNumSpanNames] = {};
  /// Every child lies inside its parent and every self time is >= 0.
  bool well_formed = true;
  std::string first_error;
  /// Self time of layer spans under block roots over the blocks' wall
  /// time, summed over ranks.
  double coverage = 0;
  std::size_t nspans = 0;
};

TraceSummary summarize(const Tracer& t);

/// One JSON object per line: {"id","rank","step","name","t0_ns","t1_ns",
/// "parent","self_ns"}; ids are "<rank>:<index>", parent null for roots.
void write_span_file(const Tracer& t, const std::string& path);

}  // namespace perfbench
