#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::block: return "block";
    case SpanName::step: return "step";
    case SpanName::setup: return "setup";
    case SpanName::kernel: return "kernel";
    case SpanName::check: return "check";
    case SpanName::hls_get_addr: return "hls.get_addr";
    case SpanName::hls_first_touch: return "hls.storage.first_touch";
    case SpanName::hls_single: return "hls.sync.single";
    case SpanName::hls_single_exec: return "hls.sync.single_exec";
    case SpanName::hls_single_init: return "hls.sync.single_init";
    case SpanName::hls_barrier: return "hls.sync.barrier";
    case SpanName::hls_page_access: return "hls.pagecache.access";
    case SpanName::hls_flush: return "hls.pagecache.flush";
    case SpanName::hls_ckpt_save: return "hls.checkpoint.save";
    case SpanName::hls_ckpt_restore: return "hls.checkpoint.restore";
    case SpanName::mpi_p2p: return "mpi.p2p";
    case SpanName::mpi_allreduce: return "mpi.coll.allreduce";
    case SpanName::mpi_allgather: return "mpi.coll.allgather";
    case SpanName::mpi_barrier: return "mpi.coll.barrier";
    case SpanName::net_p2p: return "mpi.cluster.p2p";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(int nranks)
    : epoch_(std::chrono::steady_clock::now()),
      lanes_(static_cast<std::size_t>(nranks)) {
  for (auto& l : lanes_) l.spans.reserve(1 << 14);
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const auto& l : lanes_) n += l.spans.size();
  return n;
}

int Tracer::open(int rank, SpanName n) {
  Lane& l = lanes_[static_cast<std::size_t>(rank)];
  SpanRec r;
  r.name = n;
  r.step = l.step;
  r.parent = l.top;
  r.t0 = now();
  l.spans.push_back(r);
  l.top = static_cast<std::int32_t>(l.spans.size() - 1);
  return l.top;
}

void Tracer::close(int rank, int idx) {
  Lane& l = lanes_[static_cast<std::size_t>(rank)];
  SpanRec& r = l.spans[static_cast<std::size_t>(idx)];
  r.t1 = now();
  l.top = r.parent;
}

namespace {

/// Self time of every span of one lane, plus the well-formedness check.
std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans,
                                     TraceSummary& s, int rank) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<std::int64_t>(spans[i].t1 - spans[i].t0);
  }
  auto fail = [&](std::size_t i, const char* why) {
    if (!s.well_formed) return;
    s.well_formed = false;
    s.first_error = "rank " + std::to_string(rank) + " span " +
                    std::to_string(i) + " (" + to_string(spans[i].name) +
                    "): " + why;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& c = spans[i];
    if (c.t1 < c.t0) fail(i, "ends before it starts");
    if (c.parent < 0) continue;
    if (static_cast<std::size_t>(c.parent) >= i) {
      fail(i, "parent opened after the child");
      continue;
    }
    const SpanRec& p = spans[static_cast<std::size_t>(c.parent)];
    if (c.t0 < p.t0 || c.t1 > p.t1) fail(i, "not inside its parent");
    self[static_cast<std::size_t>(c.parent)] -=
        static_cast<std::int64_t>(c.t1 - c.t0);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < 0) fail(i, "negative self time");
  }
  return self;
}

}  // namespace

TraceSummary summarize(const Tracer& t) {
  TraceSummary s;
  double covered = 0, wall = 0;
  for (int r = 0; r < t.nranks(); ++r) {
    const auto& spans = t.spans(r);
    const std::vector<std::int64_t> self = self_times(spans, s, r);
    // Root ancestor of each span (parents precede children).
    std::vector<SpanName> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      root[i] = spans[i].parent < 0
                    ? spans[i].name
                    : root[static_cast<std::size_t>(spans[i].parent)];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& sp = spans[i];
      const auto k = static_cast<std::size_t>(sp.name);
      s.total_s[k] += static_cast<double>(sp.t1 - sp.t0) * 1e-9;
      s.self_s[k] += static_cast<double>(self[i]) * 1e-9;
      ++s.count[k];
      if (root[i] != SpanName::block) continue;
      if (sp.name == SpanName::block) {
        wall += static_cast<double>(sp.t1 - sp.t0);
      } else if (sp.name != SpanName::step) {
        covered += static_cast<double>(self[i]);
      }
    }
    s.nspans += spans.size();
  }
  s.coverage = wall > 0 ? covered / wall : 0;
  return s;
}

void write_span_file(const Tracer& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  TraceSummary unchecked;  // well-formedness is reported by summarize()
  for (int r = 0; r < t.nranks(); ++r) {
    const auto& spans = t.spans(r);
    const std::vector<std::int64_t> self = self_times(spans, unchecked, r);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& sp = spans[i];
      char parent[32] = "null";
      if (sp.parent >= 0) {
        std::snprintf(parent, sizeof parent, "\"%d:%d\"", r, sp.parent);
      }
      std::fprintf(f,
                   "{\"id\":\"%d:%zu\",\"rank\":%d,\"step\":%lld,"
                   "\"name\":\"%s\",\"t0_ns\":%llu,\"t1_ns\":%llu,"
                   "\"parent\":%s,\"self_ns\":%lld}\n",
                   r, i, r, static_cast<long long>(sp.step),
                   to_string(sp.name),
                   static_cast<unsigned long long>(sp.t0),
                   static_cast<unsigned long long>(sp.t1), parent,
                   static_cast<long long>(self[i]));
    }
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error("error closing span file " + path);
  }
}

}  // namespace perfbench
