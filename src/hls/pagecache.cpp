#include "hls/pagecache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "hls/crc32c.hpp"
#include "hls/registry.hpp"
#include "obs/recorder.hpp"
#include "shm/segment.hpp"

namespace hlsmpc::hls {

struct PageCache::Region {
  shm::MappedSegment* seg = nullptr;
  int sid = -1;
  int instance = -1;
  std::size_t npages = 0;
  std::vector<std::uint32_t> base_crc;     // per page, vs. last rebaseline
  std::vector<unsigned char> resident;     // 0/1 per page
  std::vector<unsigned char> noted;        // note_write hint, 0/1 per page
  std::vector<std::uint64_t> stamp;        // last-touch tick, for LRU
};

namespace {

std::size_t page_span(std::size_t page_bytes, std::size_t region_bytes,
                      std::size_t page) {
  const std::size_t off = page * page_bytes;
  return std::min(page_bytes, region_bytes - off);
}

/// CRC-32C of `bytes` zero bytes, chained over one small zero block.
std::uint32_t crc32c_zeros(std::size_t bytes) {
  static const unsigned char kZeros[4096] = {};
  std::uint32_t crc = 0;
  while (bytes > 0) {
    const std::size_t n = std::min(bytes, sizeof(kZeros));
    crc = crc32c(kZeros, n, crc);
    bytes -= n;
  }
  return crc;
}

}  // namespace

PageCache::PageCache(TierConfig cfg, obs::Recorder* obs)
    : cfg_(std::move(cfg)), obs_(obs) {
  if (cfg_.page_bytes == 0 ||
      (cfg_.page_bytes & (cfg_.page_bytes - 1)) != 0) {
    throw HlsError("PageCache: page_bytes must be a power of two");
  }
  if (cfg_.pool_pages == 0) {
    throw HlsError("PageCache: pool_pages must be positive");
  }
  if (cfg_.read_ahead_pages == 0) cfg_.read_ahead_pages = 1;
  scratch_.resize(cfg_.read_ahead_pages * cfg_.page_bytes);
}

PageCache::~PageCache() = default;

PageCache::Region* PageCache::region_locked(int rid) const {
  if (rid < 0 || static_cast<std::size_t>(rid) >= regions_.size() ||
      regions_[static_cast<std::size_t>(rid)] == nullptr) {
    throw HlsError("PageCache: unknown region id " + std::to_string(rid));
  }
  return regions_[static_cast<std::size_t>(rid)].get();
}

int PageCache::attach(shm::MappedSegment* seg, int sid, int instance,
                      bool zeroed) {
  if (seg == nullptr || seg->size() == 0) {
    throw HlsError("PageCache: attach of empty segment");
  }
  auto r = std::make_unique<Region>();
  r->seg = seg;
  r->sid = sid;
  r->instance = instance;
  r->npages = (seg->size() + cfg_.page_bytes - 1) / cfg_.page_bytes;
  r->base_crc.resize(r->npages);
  r->resident.assign(r->npages, 0);
  r->noted.assign(r->npages, 0);
  r->stamp.assign(r->npages, 0);
  if (zeroed) {
    // Every page's baseline is the CRC of a zero span: one CRC per
    // distinct span length (whole pages, then a short last page), and no
    // page of the segment is faulted in to compute it.
    const std::uint32_t whole = crc32c_zeros(cfg_.page_bytes);
    std::fill(r->base_crc.begin(), r->base_crc.end(), whole);
    const std::size_t tail = page_span(cfg_.page_bytes, seg->size(),
                                       r->npages - 1);
    if (tail != cfg_.page_bytes) r->base_crc.back() = crc32c_zeros(tail);
  } else {
    const unsigned char* base =
        static_cast<const unsigned char*>(seg->base());
    for (std::size_t p = 0; p < r->npages; ++p) {
      r->base_crc[p] = crc32c(base + p * cfg_.page_bytes,
                              page_span(cfg_.page_bytes, seg->size(), p));
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i] == nullptr) {
      regions_[i] = std::move(r);
      return static_cast<int>(i);
    }
  }
  regions_.push_back(std::move(r));
  return static_cast<int>(regions_.size() - 1);
}

void PageCache::detach(int rid) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  for (std::size_t p = 0; p < r->npages; ++p) {
    if (r->resident[p] != 0) --resident_pages_;
  }
  regions_[static_cast<std::size_t>(rid)].reset();
}

bool PageCache::page_dirty_locked(const Region& r, std::size_t page) const {
  if (r.noted[page] != 0) return true;
  const unsigned char* base =
      static_cast<const unsigned char*>(r.seg->base());
  return crc32c(base + page * cfg_.page_bytes,
                page_span(cfg_.page_bytes, r.seg->size(), page)) !=
         r.base_crc[page];
}

void PageCache::writeback_page_locked(Region& r, std::size_t page, int task) {
  const std::size_t off = page * cfg_.page_bytes;
  const std::size_t len = page_span(cfg_.page_bytes, r.seg->size(), page);
  r.seg->sync(off, len, /*blocking=*/true);
  r.noted[page] = 0;
  ++stats_.writebacks;
  stats_.writeback_bytes += len;
  if (obs_ != nullptr) {
    obs_->count(task, obs::Counter::tier_writeback_bytes, len);
    obs::Event e;
    e.kind = obs::EventKind::tier_writeback;
    e.sid = static_cast<std::int16_t>(r.sid);
    e.task = task;
    e.instance = r.instance;
    e.t0 = e.t1 = obs_->now();
    e.arg = static_cast<std::int64_t>(len);
    e.arg2 = 1;
    obs_->record(e);
  }
}

void PageCache::evict_down_to_budget_locked(int task) {
  while (resident_pages_ > cfg_.pool_pages) {
    // Least-recently-touched resident page across all regions. A linear
    // scan: eviction runs on the cold miss path only, and the bitmap walk
    // is cheap next to the I/O it precedes.
    Region* vr = nullptr;
    std::size_t vp = 0;
    std::uint64_t vstamp = 0;
    for (auto& reg : regions_) {
      if (reg == nullptr) continue;
      for (std::size_t p = 0; p < reg->npages; ++p) {
        if (reg->resident[p] == 0) continue;
        if (vr == nullptr || reg->stamp[p] < vstamp) {
          vr = reg.get();
          vp = p;
          vstamp = reg->stamp[p];
        }
      }
    }
    if (vr == nullptr) return;  // budget smaller than bookkeeping says
    if (page_dirty_locked(*vr, vp)) writeback_page_locked(*vr, vp, task);
    vr->seg->drop(vp * cfg_.page_bytes,
                  page_span(cfg_.page_bytes, vr->seg->size(), vp));
    vr->resident[vp] = 0;
    --resident_pages_;
    ++stats_.evictions;
  }
}

void PageCache::touch(int rid, std::size_t offset, std::size_t len,
                      int task) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (offset >= r->seg->size()) return;
  len = std::min(len, r->seg->size() - offset);
  const std::size_t first = offset / cfg_.page_bytes;
  const std::size_t last = (offset + len - 1) / cfg_.page_bytes;
  // A range larger than the pool can keep only its last pool_pages pages
  // resident. The pages before that tail are priced (hit if resident,
  // miss if not) but neither read nor re-stamped. Pre-reading them would
  // not warm the kernel page cache for the faults that follow: a fresh
  // segment holds holes or bytes this process just wrote, and attach()
  // has already read every page of a re-opened one to hash it. Pages
  // resident there keep their old stamps, so they are the first the LRU
  // drops (written back if dirty).
  const bool over_pool = last - first + 1 > cfg_.pool_pages;
  const std::size_t tail = over_pool ? last + 1 - cfg_.pool_pages : first;
  if (over_pool) {
    std::uint64_t head_hits = 0;
    for (std::size_t p = first; p < tail; ++p) head_hits += r->resident[p];
    const std::uint64_t head_misses = (tail - first) - head_hits;
    stats_.hits += head_hits;
    stats_.misses += head_misses;
    if (obs_ != nullptr) {
      obs_->count(task, obs::Counter::tier_cache_hits, head_hits);
      obs_->count(task, obs::Counter::tier_cache_misses, head_misses);
    }
  }
  // Windows stop pool_pages pages past the first page this touch keeps
  // (the range's end when over the pool): pages beyond would evict what
  // this touch just read, the touched pages included.
  const std::size_t wcap = std::min(r->npages, tail + cfg_.pool_pages);
  for (std::size_t p = tail; p <= last; ++p) {
    if (r->resident[p] != 0) {
      ++stats_.hits;
      r->stamp[p] = ++tick_;
      if (obs_ != nullptr) obs_->count(task, obs::Counter::tier_cache_hits);
      continue;
    }
    // Miss: bulk-read a window starting here. The pread populates the
    // kernel page cache, so the pages this rank's neighbours touch next
    // — and the remainder of this access — fault from memory.
    const std::size_t wend =
        std::min(wcap, std::max(p + cfg_.read_ahead_pages, last + 1));
    std::size_t wpages = 0;
    std::size_t q = p;
    while (q < wend && r->resident[q] == 0) {
      ++wpages;
      ++q;
    }
    const std::size_t woff = p * cfg_.page_bytes;
    const std::size_t wlen =
        std::min(wpages * cfg_.page_bytes, r->seg->size() - woff);
    // One window, read in chunks of at most read_ahead_pages pages into a
    // scratch of that size: the buffer is only a landing pad, the kernel
    // page cache is what the read fills.
    std::size_t got = 0;
    while (got < wlen) {
      const ssize_t n =
          ::pread(r->seg->fd(), scratch_.data(),
                  std::min(scratch_.size(), wlen - got),
                  static_cast<off_t>(woff + got));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // holes read as zeros through the mapping anyway
      }
      if (n == 0) break;  // short file (hole at EOF): already zero pages
      got += static_cast<std::size_t>(n);
    }
    std::uint64_t missed = 0;
    for (std::size_t m = p; m < p + wpages; ++m) {
      r->resident[m] = 1;
      r->stamp[m] = ++tick_;
      ++resident_pages_;
      // Only pages of the *touched* range are misses; the rest of the
      // window is prefetch, priced as neither hit nor miss.
      if (m <= last) ++missed;
    }
    stats_.misses += missed;
    ++stats_.prereads;
    stats_.preread_bytes += wlen;
    if (obs_ != nullptr) {
      obs_->count(task, obs::Counter::tier_cache_misses, missed);
      obs_->count(task, obs::Counter::tier_preread_bytes, wlen);
      obs::Event e;
      e.kind = obs::EventKind::tier_preread;
      e.sid = static_cast<std::int16_t>(r->sid);
      e.task = task;
      e.instance = r->instance;
      e.t0 = e.t1 = obs_->now();
      e.arg = static_cast<std::int64_t>(wlen);
      e.arg2 = static_cast<std::int64_t>(wpages);
      obs_->record(e);
    }
    evict_down_to_budget_locked(task);
    p += wpages - 1;  // loop's ++p steps past the window
  }
}

void PageCache::note_write(int rid, std::size_t offset, std::size_t len) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (offset >= r->seg->size()) return;
  len = std::min(len, r->seg->size() - offset);
  const std::size_t first = offset / cfg_.page_bytes;
  const std::size_t last = (offset + len - 1) / cfg_.page_bytes;
  for (std::size_t p = first; p <= last; ++p) r->noted[p] = 1;
}

std::vector<std::pair<std::size_t, std::size_t>> PageCache::dirty_runs_locked(
    const Region& r) const {
  // One pass, one hash per page: a dirty page extends the span that ends
  // where it starts, or opens a new one.
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t p = 0; p < r.npages; ++p) {
    if (!page_dirty_locked(r, p)) continue;
    const std::size_t off = p * cfg_.page_bytes;
    const std::size_t len = page_span(cfg_.page_bytes, r.seg->size(), p);
    if (!out.empty() && out.back().first + out.back().second == off) {
      out.back().second += len;
    } else {
      out.emplace_back(off, len);
    }
  }
  return out;
}

std::size_t PageCache::writeback(int rid, int task) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  std::size_t total = 0;
  // One msync (and one event) per coalesced span.
  for (const auto& [off, len] : dirty_runs_locked(*r)) {
    const std::size_t p = off / cfg_.page_bytes;
    const std::size_t q = p + (len + cfg_.page_bytes - 1) / cfg_.page_bytes;
    r->seg->sync(off, len, /*blocking=*/true);
    for (std::size_t m = p; m < q; ++m) r->noted[m] = 0;
    ++stats_.writebacks;
    stats_.writeback_bytes += len;
    total += len;
    if (obs_ != nullptr) {
      obs_->count(task, obs::Counter::tier_writeback_bytes, len);
      obs::Event e;
      e.kind = obs::EventKind::tier_writeback;
      e.sid = static_cast<std::int16_t>(r->sid);
      e.task = task;
      e.instance = r->instance;
      e.t0 = e.t1 = obs_->now();
      e.arg = static_cast<std::int64_t>(len);
      e.arg2 = static_cast<std::int64_t>(q - p);
      obs_->record(e);
    }
  }
  return total;
}

std::vector<std::pair<std::size_t, std::size_t>> PageCache::dirty_spans(
    int rid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return dirty_runs_locked(*region_locked(rid));
}

void PageCache::rebaseline(int rid) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  const unsigned char* base =
      static_cast<const unsigned char*>(r->seg->base());
  for (std::size_t p = 0; p < r->npages; ++p) {
    r->base_crc[p] = crc32c(base + p * cfg_.page_bytes,
                            page_span(cfg_.page_bytes, r->seg->size(), p));
    r->noted[p] = 0;
  }
}

PageCache::Stats PageCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace hlsmpc::hls
