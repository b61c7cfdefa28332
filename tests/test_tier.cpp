// Storage tier (hls/tier.hpp): file-backed and spill regions, the page
// cache fronting them, and the persistence/incremental-checkpoint
// composition.
//
// The load-bearing checks:
//  - page cache: a cold touch's bulk read-ahead turns a co-resident
//    rank's later touch into a hit; a touch larger than the pool reads
//    only the tail it keeps; small dirty ranges coalesce into maximal
//    write-back spans; pool pressure evicts least-recently-touched pages
//    without losing data; content hashing catches writes through warm
//    pointers that never re-entered the runtime; zero baselines of a
//    fresh segment equal hashed ones;
//  - MappedSegment: a stable path re-opens bit-identical, a size
//    mismatch recreates zeros (never leaks stale bytes);
//  - runtime: a file_backed scope behaves exactly like anonymous storage
//    through hls_get_addr, is not charged as DRAM, survives a process
//    restart bit-identically (with hit/miss counters visible in the obs
//    snapshot), and file_spill scratch is unlinked at destruction; an
//    initialized spill region is clean after first touch, and a cold
//    over-pool region is pre-read once per node, not once per rank;
//  - incremental checkpoints: a delta save snapshots only the dirty page
//    spans, chains onto its full base, and restores bit-identically into
//    a fresh runtime.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "hls/checkpoint.hpp"
#include "hls/hls.hpp"
#include "hls/pagecache.hpp"
#include "obs/recorder.hpp"
#include "shm/segment.hpp"
#include "ult/scheduler.hpp"

namespace hls = hlsmpc::hls;
namespace obs = hlsmpc::obs;
namespace shm = hlsmpc::shm;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

namespace {

constexpr std::size_t kPage = 4096;

std::uint8_t pattern(int instance, std::size_t i, int salt) {
  return static_cast<std::uint8_t>(instance * 97 + i * 31 + salt);
}

/// Empty, existing scratch directory under the test tmpdir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  mkdir(dir.c_str(), 0755);
  return dir;
}

/// Regular files under `dir` (spill-cleanup evidence).
int count_files(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(d)) {
    const std::string base = e->d_name;
    if (base != "." && base != "..") ++n;
  }
  closedir(d);
  return n;
}

hls::TierConfig small_pages(const std::string& dir) {
  hls::TierConfig cfg;
  cfg.dir = dir;
  cfg.page_bytes = kPage;
  cfg.pool_pages = 64;
  cfg.read_ahead_pages = 4;
  return cfg;
}

struct TierVars {
  hls::VarHandle blob;  // node scope, 4 pages
};

TierVars register_blob(hls::Runtime& rt) {
  hls::ModuleBuilder mb(rt.registry(), "tiered");
  auto blob =
      hls::add_array<std::uint8_t>(mb, "blob", 4 * kPage, topo::node_scope());
  mb.commit();
  return {blob.handle()};
}

/// Fill (or verify) every instance of `h` with pattern(instance, i, salt),
/// materializing lazily via get_addr like a task's first touch would.
void fill_all(hls::Runtime& rt, const hls::VarHandle& h, int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) p[i] = pattern(inst, i, salt);
  }
}

testing::AssertionResult all_match(hls::Runtime& rt, const hls::VarHandle& h,
                                   int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    const auto* p =
        static_cast<const std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) {
      if (p[i] != pattern(inst, i, salt)) {
        return testing::AssertionFailure()
               << "instance " << inst << " byte " << i << ": "
               << static_cast<int>(p[i]) << " != expected "
               << static_cast<int>(pattern(inst, i, salt));
      }
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace

// ---- page cache -----------------------------------------------------

TEST(PageCache, ReadAheadServesCoResidentTouch) {
  const std::string dir = fresh_dir("hls_tier_pc_ra");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);

  // Rank 0's cold touch of page 0 bulk-preads a read_ahead_pages window.
  pc.touch(rid, 0, 1, /*task=*/0);
  hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.prereads, 1u);
  EXPECT_EQ(s.preread_bytes, 4 * kPage);

  // A co-resident rank touching INSIDE the window faults from memory: a
  // hit, no new I/O — the whole point of the shared pre-read.
  pc.touch(rid, 2 * kPage, 1, /*task=*/1);
  s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.prereads, 1u);

  // Outside the window: a fresh miss and a fresh (clipped) pre-read.
  pc.touch(rid, 6 * kPage, 1, /*task=*/1);
  s = pc.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.prereads, 2u);
  EXPECT_EQ(s.preread_bytes, 4 * kPage + 2 * kPage);  // window clipped at EOF
}

TEST(PageCache, ReadAheadWiderThanPoolKeepsTouchedPage) {
  const std::string dir = fresh_dir("hls_tier_pc_ra_wide");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::TierConfig cfg = small_pages(dir);
  cfg.pool_pages = 2;
  cfg.read_ahead_pages = 4;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);

  // The window is capped at the pool: pages 0-1 are read and nothing is
  // evicted. A 4-page window would leave page 0 the oldest of four and
  // drop it before the touch returns.
  pc.touch(rid, 0, 1, /*task=*/0);
  hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.preread_bytes, 2 * kPage);
  EXPECT_EQ(s.evictions, 0u);

  // Page 0 is resident: a re-touch is a hit with no new I/O.
  pc.touch(rid, 0, 1, /*task=*/0);
  s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.prereads, 1u);
}

TEST(PageCache, CoalescesDirtySpansAndHashesUnhintedWrites) {
  const std::string dir = fresh_dir("hls_tier_pc_wb");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);  // baselines: all zeros

  // Two adjacent pages plus one distant page: exactly two spans, and the
  // write-back issues exactly two (coalesced) msyncs covering three pages.
  pc.note_write(rid, 0, 2 * kPage);
  pc.note_write(rid, 5 * kPage, 100);
  const auto spans = pc.dirty_spans(rid);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], std::make_pair(std::size_t{0}, 2 * kPage));
  EXPECT_EQ(spans[1], std::make_pair(5 * kPage, kPage));
  EXPECT_EQ(pc.writeback(rid), 3 * kPage);
  const hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.writebacks, 2u);
  EXPECT_EQ(s.writeback_bytes, 3 * kPage);
  EXPECT_TRUE(pc.dirty_spans(rid).empty());  // hints cleared, content clean

  // A write through the raw mapping (the warm get_addr path never
  // re-enters the runtime, so no hint): the content hash must catch it.
  static_cast<unsigned char*>(seg.base())[3 * kPage + 7] = 0xAB;
  const auto hashed = pc.dirty_spans(rid);
  ASSERT_EQ(hashed.size(), 1u);
  EXPECT_EQ(hashed[0], std::make_pair(3 * kPage, kPage));

  // rebaseline (the checkpoint epoch mark) declares current contents clean.
  pc.rebaseline(rid);
  EXPECT_TRUE(pc.dirty_spans(rid).empty());
}

TEST(PageCache, EvictsUnderPoolPressureWithoutDataLoss) {
  const std::string dir = fresh_dir("hls_tier_pc_evict");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::TierConfig cfg = small_pages(dir);
  cfg.pool_pages = 2;
  cfg.read_ahead_pages = 1;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);

  // Dirty every page relative to the all-zero baselines, then walk the
  // region: the resident set is capped at 2, so 6 pages must be evicted —
  // written back first (they are dirty), then dropped.
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < 8 * kPage; ++i) {
    p[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  for (std::size_t page = 0; page < 8; ++page) {
    pc.touch(rid, page * kPage, kPage, /*task=*/0);
  }
  const hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.evictions, 6u);
  EXPECT_GE(s.writebacks, 6u);  // every evicted page was dirty
  // Dropped pages fault back from the file: nothing was lost.
  for (std::size_t i = 0; i < 8 * kPage; ++i) {
    ASSERT_EQ(p[i], static_cast<unsigned char>(i * 31 + 7)) << "byte " << i;
  }
}

TEST(PageCache, OverPoolTouchReadsOnlyTheTailItKeeps) {
  const std::string dir = fresh_dir("hls_tier_pc_over");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::TierConfig cfg = small_pages(dir);
  cfg.pool_pages = 2;
  cfg.read_ahead_pages = 4;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);

  // Single-page touches from the top down: each window stops at the
  // resident page above it, so pages 1 and 0 are resident at the end.
  for (std::size_t page = 8; page-- > 0;) pc.touch(rid, page * kPage, 1);
  // Dirty page 0 through the mapping (no hint: the hash must catch it).
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < kPage; ++i) {
    p[i] = static_cast<unsigned char>(i * 29 + 3);
  }

  // The whole range is 8 pages against a pool of 2: only pages 6 and 7
  // can be resident on return, so only they are read.
  const hls::PageCache::Stats before = pc.stats();
  pc.touch(rid, 0, 8 * kPage, /*task=*/0);
  const hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.hits - before.hits, 2u);      // pages 0 and 1
  EXPECT_EQ(s.misses - before.misses, 6u);  // every page not resident
  EXPECT_EQ(s.prereads - before.prereads, 1u);
  EXPECT_EQ(s.preread_bytes - before.preread_bytes, 2 * kPage);
  // Pages 0 and 1 left through the LRU; dirty page 0 was written back
  // first, clean page 1 was not.
  EXPECT_EQ(s.evictions - before.evictions, 2u);
  EXPECT_EQ(s.writebacks - before.writebacks, 1u);
  EXPECT_EQ(s.writeback_bytes - before.writeback_bytes, kPage);
  std::vector<unsigned char> file(kPage);
  ASSERT_EQ(::pread(seg.fd(), file.data(), kPage, 0),
            static_cast<ssize_t>(kPage));
  for (std::size_t i = 0; i < kPage; ++i) {
    ASSERT_EQ(file[i], static_cast<unsigned char>(i * 29 + 3)) << "byte " << i;
    ASSERT_EQ(p[i], static_cast<unsigned char>(i * 29 + 3)) << "byte " << i;
  }

  // The tail it kept serves the next whole-range touch: no new I/O.
  pc.touch(rid, 0, 8 * kPage, /*task=*/1);
  const hls::PageCache::Stats again = pc.stats();
  EXPECT_EQ(again.prereads, s.prereads);
  EXPECT_EQ(again.preread_bytes, s.preread_bytes);
  EXPECT_EQ(again.hits - s.hits, 2u);  // pages 6 and 7
}

TEST(PageCache, FreshSegmentZeroBaselinesMatchHashing) {
  const std::string dir = fresh_dir("hls_tier_pc_zero");
  // A zero span's CRC is chained over a 4 KiB zero block: pages of one
  // block and of several, each with a short last span.
  for (const std::size_t page : {kPage, 4 * kPage}) {
    SCOPED_TRACE("page_bytes " + std::to_string(page));
    hls::TierConfig cfg = small_pages(dir);
    cfg.page_bytes = page;
    // Three and a half pages: the last span is short.
    const std::size_t bytes = 3 * page + page / 2;
    const std::string path = dir + "/seg" + std::to_string(page);
    {
      shm::MappedSegment seg(path, bytes);
      ASSERT_FALSE(seg.reopened());
      hls::PageCache zeroed(cfg);
      hls::PageCache hashed(cfg);
      const int zrid = zeroed.attach(&seg, -1, -1, /*zeroed=*/true);
      const int hrid = hashed.attach(&seg);
      EXPECT_TRUE(zeroed.dirty_spans(zrid).empty());
      EXPECT_TRUE(hashed.dirty_spans(hrid).empty());

      // One written byte dirties exactly its page, whole or short.
      auto* p = static_cast<unsigned char*>(seg.base());
      p[page + 9] = 0x5A;
      const std::vector<std::pair<std::size_t, std::size_t>> one = {
          {page, page}};
      EXPECT_EQ(zeroed.dirty_spans(zrid), one);
      EXPECT_EQ(hashed.dirty_spans(hrid), one);
      p[bytes - 1] = 0xA5;
      const std::vector<std::pair<std::size_t, std::size_t>> two = {
          {page, page}, {3 * page, page / 2}};
      EXPECT_EQ(zeroed.dirty_spans(zrid), two);
      EXPECT_EQ(hashed.dirty_spans(hrid), two);
      seg.sync(0, bytes, /*blocking=*/true);
    }
    // Re-opened with non-zero contents: the baselines are hashed, so the
    // region is clean right after attach.
    shm::MappedSegment seg(path, bytes);
    ASSERT_TRUE(seg.reopened());
    hls::PageCache pc(cfg);
    const int rid = pc.attach(&seg, -1, -1, /*zeroed=*/!seg.reopened());
    EXPECT_TRUE(pc.dirty_spans(rid).empty());
  }
}

// ---- the persistence substrate ---------------------------------------

TEST(MappedSegmentTier, ReopenIsBitIdenticalAndMismatchRecreates) {
  const std::string dir = fresh_dir("hls_tier_reopen");
  const std::string path = dir + "/persist";
  {
    shm::MappedSegment seg(path, 2 * kPage);
    EXPECT_FALSE(seg.reopened());
    auto* p = static_cast<unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 2 * kPage; ++i) {
      p[i] = static_cast<unsigned char>(i * 13 + 5);
    }
    seg.sync(0, 2 * kPage, /*blocking=*/true);
  }
  {
    // Same path, same size: the previous run's bytes, bit-identical.
    shm::MappedSegment seg(path, 2 * kPage);
    EXPECT_TRUE(seg.reopened());
    const auto* p = static_cast<const unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 2 * kPage; ++i) {
      ASSERT_EQ(p[i], static_cast<unsigned char>(i * 13 + 5)) << "byte " << i;
    }
  }
  {
    // Size mismatch: recreated as zeros — stale bytes must never leak
    // into a region registered with a different layout.
    shm::MappedSegment seg(path, 4 * kPage);
    EXPECT_FALSE(seg.reopened());
    const auto* p = static_cast<const unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 4 * kPage; ++i) {
      ASSERT_EQ(p[i], 0u) << "byte " << i;
    }
  }
}

// ---- runtime integration ---------------------------------------------

TEST(TierRuntime, FileBackedReadsAndWritesLikeAnonymous) {
  const std::string dir = fresh_dir("hls_tier_rt_basic");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  hls::Runtime rt(m, 1, o);
  const TierVars v = register_blob(rt);
  rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
  EXPECT_EQ(rt.storage().tier_of(v.blob.scope, v.blob.module),
            hls::Tier::file_backed);

  fill_all(rt, v.blob, /*salt=*/5);
  EXPECT_TRUE(all_match(rt, v.blob, 5));
  // File-tier bytes are paged by the kernel against the file — they are
  // deliberately NOT charged as allocated DRAM.
  EXPECT_EQ(rt.storage().bytes_allocated(), 0u);
}

TEST(TierRuntime, FileBackedSurvivesRestartBitIdenticalThroughGetAddr) {
  const std::string dir = fresh_dir("hls_tier_rt_persist");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);

  // "Process" 1: write instance 0 through the compiled get_addr path and
  // flush the dirty pages to the backing file.
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    ult::ThreadExecutor ex;
    std::size_t flushed = 0;
    ex.run(1, {0}, [&](ult::TaskContext& ctx) {
      rt.bind_task(ctx);
      auto* p = static_cast<std::uint8_t*>(rt.get_addr(v.blob, ctx));
      for (std::size_t i = 0; i < v.blob.size; ++i) p[i] = pattern(0, i, 5);
      flushed = rt.tier_flush(ctx);
    });
    EXPECT_GT(flushed, 0u);
    const obs::Snapshot snap = rt.obs()->snapshot();
    EXPECT_GE(snap.value(obs::Counter::tier_spills), 1u);
    EXPECT_GE(snap.value(obs::Counter::tier_cache_misses), 1u);
    EXPECT_GT(snap.value(obs::Counter::tier_writeback_bytes), 0u);
  }
  // The stable-path backing file outlives the runtime.
  EXPECT_GE(count_files(dir), 1);

  // "Process" 2 (the restart): the same registration re-opens the file —
  // initializers are skipped — and reads back bit-identical through
  // hls_get_addr.
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    std::atomic<bool> ok{true};
    ult::ThreadExecutor ex;
    ex.run(1, {0}, [&](ult::TaskContext& ctx) {
      rt.bind_task(ctx);
      const auto* p =
          static_cast<const std::uint8_t*>(rt.get_addr(v.blob, ctx));
      for (std::size_t i = 0; i < v.blob.size; ++i) {
        if (p[i] != pattern(0, i, 5)) ok.store(false);
      }
      // A second resolve of the now-resident range is priced as hits.
      rt.storage().get_addr(v.blob.scope, v.blob.module, 0, v.blob.size, 0,
                            &ctx);
    });
    EXPECT_TRUE(ok.load());
    // The re-opened contents are the baselines (hashed, not assumed
    // zero): nothing is dirty until a task writes.
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    ASSERT_TRUE(rt.storage().tier_dirty_spans(v.blob.scope, 0, v.blob.module,
                                              &spans));
    EXPECT_TRUE(spans.empty());
    const obs::Snapshot snap = rt.obs()->snapshot();
    EXPECT_GE(snap.value(obs::Counter::tier_cache_misses), 1u);
    EXPECT_GE(snap.value(obs::Counter::tier_cache_hits), 1u);
    EXPECT_GE(snap.value(obs::Counter::tier_spills), 1u);
  }
}

TEST(TierRuntime, SpillFilesAreRemovedAtDestruction) {
  const std::string dir = fresh_dir("hls_tier_rt_spill");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_spill);
    fill_all(rt, v.blob, /*salt=*/3);
    EXPECT_TRUE(all_match(rt, v.blob, 3));
    // One pid-stamped scratch file per materialized instance.
    EXPECT_GE(count_files(dir), 1);
  }
  // Scratch is scratch: destruction unlinks every spill file.
  EXPECT_EQ(count_files(dir), 0);
}

TEST(TierRuntime, InitializedSpillRegionIsCleanAfterFirstTouch) {
  const std::string dir = fresh_dir("hls_tier_rt_init");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  hls::Runtime rt(m, 1, o);
  hls::ModuleBuilder mb(rt.registry(), "inited");
  const std::size_t n = 3 * kPage + 100;
  auto arr = hls::add_array<std::uint8_t>(
      mb, "arr", n, topo::node_scope(), [](std::uint8_t* p, std::size_t c) {
        for (std::size_t i = 0; i < c; ++i) {
          p[i] = static_cast<std::uint8_t>(i * 7 + 1);
        }
      });
  mb.commit();
  const hls::VarHandle& h = arr.handle();
  rt.storage().set_tier(h.scope, hls::Tier::file_spill);

  // The initializer wrote into the fresh segment before the cache took
  // its baselines, so they must be hashed, not assumed zero.
  const auto* p = static_cast<const std::uint8_t*>(rt.storage().get_addr(h, 0));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(p[i], static_cast<std::uint8_t>(i * 7 + 1)) << "byte " << i;
  }
  const int inst =
      rt.registry().scopes().instance_of(hls::scope_id(rt.registry().scopes(),
                                                       h.scope), 0);
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  ASSERT_TRUE(rt.storage().tier_dirty_spans(h.scope, inst, h.module, &spans));
  EXPECT_TRUE(spans.empty());
}

TEST(TierRuntime, ColdOverPoolRegionIsPreReadOncePerNode) {
  const std::string dir = fresh_dir("hls_tier_rt_overpool");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  o.tier.pool_pages = 8;
  hls::Runtime rt(m, 4, o);
  hls::ModuleBuilder mb(rt.registry(), "overpool");
  auto arr = hls::add_array<std::uint8_t>(mb, "arr", 16 * kPage,
                                          topo::node_scope());
  mb.commit();
  const hls::VarHandle& h = arr.handle();
  rt.storage().set_tier(h.scope, hls::Tier::file_spill);

  // Four ranks of one node, each with a cold get_addr of the whole
  // region (twice the pool).
  ult::ThreadExecutor ex;
  ex.run(4, {0, 1, 2, 3}, [&](ult::TaskContext& ctx) {
    rt.bind_task(ctx);
    EXPECT_NE(rt.get_addr(h, ctx), nullptr);
  });
  const hls::PageCache::Stats s = rt.storage().page_cache()->stats();
  EXPECT_EQ(s.hits + s.misses, 4u * 16u);
  // One rank reads the pool-sized tail; the others hit on it.
  EXPECT_LE(s.preread_bytes, o.tier.pool_pages * kPage);
  EXPECT_GE(s.hits, 3u * o.tier.pool_pages);
}

// ---- incremental checkpoints over dirty page tracking ------------------

TEST(TierRuntime, IncrementalCheckpointSnapshotsOnlyDirtyPages) {
  const std::string ckpt_dir = fresh_dir("hls_tier_ckpt");
  const std::string tier_dir = fresh_dir("hls_tier_ckpt_tier");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(tier_dir);
  hls::Runtime rt(m, 1, o);
  const TierVars v = register_blob(rt);
  rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, v.blob.scope);
  const int ninstances = [&] {
    int n = 0;
    for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
      n = std::max(n, st.instance_of(sid, cpu) + 1);
    }
    return n;
  }();
  ASSERT_GE(ninstances, 1);

  fill_all(rt, v.blob, /*salt=*/1);
  hls::CheckpointStore store({ckpt_dir});
  const hls::CheckpointStore::Report full =
      store.save(rt.storage(), rt.registry(), v.blob.scope);
  EXPECT_FALSE(full.delta);
  EXPECT_EQ(full.version, 1u);
  // A full save carries every instance, whole.
  EXPECT_EQ(full.payload_bytes,
            static_cast<std::size_t>(ninstances) * v.blob.size);

  // Dirty exactly one page per instance (page 2), through get_addr like a
  // task write between checkpoint epochs.
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(
        v.blob.scope, v.blob.module, 2 * kPage, 64, cpu));
    for (std::size_t j = 0; j < 64; ++j) {
      p[j] = pattern(inst, 2 * kPage + j, 2);
    }
  }
  const hls::CheckpointStore::Report inc =
      store.save_incremental(rt.storage(), rt.registry(), v.blob.scope);
  EXPECT_TRUE(inc.delta);
  EXPECT_EQ(inc.version, 2u);
  EXPECT_EQ(inc.base_version, 1u);
  EXPECT_EQ(inc.regions, ninstances);  // one dirty span per instance
  // One dirty page per instance — not the whole region.
  EXPECT_EQ(inc.payload_bytes, static_cast<std::size_t>(ninstances) * kPage);
  EXPECT_LT(inc.payload_bytes, full.payload_bytes);

  // Restore the chain (full v1 + delta v2) into a fresh runtime whose
  // tier directory is EMPTY — the bytes must come from the checkpoint,
  // not from a surviving backing file.
  const std::string tier_dir2 = fresh_dir("hls_tier_ckpt_tier2");
  hls::Runtime::Options o2;
  o2.tier = small_pages(tier_dir2);
  hls::Runtime rt2(m, 1, o2);
  const TierVars v2 = register_blob(rt2);
  rt2.storage().set_tier(v2.blob.scope, hls::Tier::file_backed);
  const hls::CheckpointStore::Report restored =
      store.restore(rt2.storage(), rt2.registry(), v2.blob.scope);
  EXPECT_EQ(restored.version, 2u);
  EXPECT_TRUE(restored.delta);
  EXPECT_EQ(restored.base_version, 1u);

  const auto& st2 = rt2.registry().scopes();
  const int sid2 = hls::scope_id(st2, v2.blob.scope);
  for (int cpu = 0; cpu < st2.num_cpus(); ++cpu) {
    const int inst = st2.instance_of(sid2, cpu);
    const auto* p =
        static_cast<const std::uint8_t*>(rt2.storage().get_addr(v2.blob, cpu));
    for (std::size_t i = 0; i < v2.blob.size; ++i) {
      const bool overwritten = i >= 2 * kPage && i < 2 * kPage + 64;
      const std::uint8_t want = pattern(inst, i, overwritten ? 2 : 1);
      ASSERT_EQ(p[i], want) << "instance " << inst << " byte " << i;
    }
  }
}
