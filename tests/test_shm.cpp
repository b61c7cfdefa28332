#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "shm/arena.hpp"
#include "shm/process_node.hpp"
#include "shm/segment.hpp"
#include "topo/topology.hpp"

namespace check = hlsmpc::check;
namespace shm = hlsmpc::shm;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

namespace {

/// A pid guaranteed dead and reaped (fork a child that exits at once).
pid_t dead_pid() {
  const pid_t pid = fork();
  if (pid == 0) _exit(0);
  int status = 0;
  waitpid(pid, &status, 0);
  return pid;
}

/// Create a raw /dev/shm entry (simulating a crashed run's leftover).
void make_raw_segment(const std::string& name) {
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, 4096), 0);
  close(fd);
}

}  // namespace

TEST(Segment, AnonymousIsReadWrite) {
  shm::AnonymousSegment seg(1 << 16);
  auto* p = static_cast<unsigned char*>(seg.base());
  p[0] = 42;
  p[(1 << 16) - 1] = 7;
  EXPECT_EQ(p[0], 42);
}

TEST(Segment, NamedSegmentSharedAcrossAttaches) {
  const std::string name = "/hlsmpc_test_" + std::to_string(getpid());
  void* hint = reinterpret_cast<void*>(0x7f1234500000ULL);
  shm::NamedSegment owner(name, 1 << 16, hint, /*owner=*/true);
  EXPECT_EQ(owner.base(), hint);
  std::strcpy(static_cast<char*>(owner.base()), "hello");
  {
    // Attach at a different address is allowed only without a hint; the
    // same hint must fail while the owner holds the range.
    EXPECT_THROW(shm::NamedSegment(name, 1 << 16, hint, false),
                 shm::ShmError);
    shm::NamedSegment view(name, 1 << 16, nullptr, false);
    EXPECT_STREQ(static_cast<char*>(view.base()), "hello");
  }
}

TEST(Segment, NamedSegmentOwnerCleansUp) {
  const std::string name = "/hlsmpc_gone_" + std::to_string(getpid());
  { shm::NamedSegment owner(name, 4096, nullptr, true); }
  EXPECT_THROW(shm::NamedSegment(name, 4096, nullptr, false), shm::ShmError);
}

TEST(Segment, UniqueNamesAreDistinctAndUsable) {
  std::set<std::string> names;
  for (int i = 0; i < 16; ++i) {
    const std::string n = shm::NamedSegment::unique_name("uniq");
    EXPECT_EQ(n.rfind("/hlsmpc.uniq.", 0), 0u) << n;
    const std::string pid_part =
        std::string(".").append(std::to_string(getpid())).append(".");
    EXPECT_NE(n.find(pid_part), std::string::npos) << n;
    names.insert(n);
  }
  EXPECT_EQ(names.size(), 16u);
  shm::NamedSegment seg(shm::NamedSegment::unique_name("uniq"), 4096, nullptr,
                        /*owner=*/true);
  EXPECT_NE(seg.base(), nullptr);
}

TEST(Segment, CleanupStaleRemovesDeadOwnersOnly) {
  const pid_t dead = dead_pid();
  const std::string stale =
      "/hlsmpc.stalesweep." + std::to_string(dead) + ".0";
  const std::string live =
      "/hlsmpc.stalesweep." + std::to_string(getpid()) + ".0";
  make_raw_segment(stale);
  make_raw_segment(live);
  EXPECT_EQ(shm::NamedSegment::cleanup_stale("stalesweep"), 1);
  // The dead owner's segment is gone; the live owner's survives.
  EXPECT_THROW(shm::NamedSegment(stale, 4096, nullptr, /*owner=*/false),
               shm::ShmError);
  shm::NamedSegment view(live, 4096, nullptr, /*owner=*/false);
  EXPECT_NE(view.base(), nullptr);
  shm_unlink(live.c_str());
  // Nothing left to sweep.
  EXPECT_EQ(shm::NamedSegment::cleanup_stale("stalesweep"), 0);
}

TEST(Segment, OwnerReclaimsOrphanOfDeadProcess) {
  // A crashed run left a segment behind (no destructor ran). A new owner
  // colliding with it must notice the embedded pid is dead, unlink the
  // corpse and retry — not fail with EEXIST.
  const pid_t dead = dead_pid();
  const std::string name = "/hlsmpc.reclaim." + std::to_string(dead) + ".7";
  make_raw_segment(name);
  shm::NamedSegment owner(name, 8192, nullptr, /*owner=*/true);
  EXPECT_NE(owner.base(), nullptr);
  EXPECT_EQ(owner.size(), 8192u);
}

// The reclaim/sweep race, systematically: one task constructs an owner
// NamedSegment under a corpse's name (the crashed run's pid is dead, so
// the constructor reclaims it) while another runs a cleanup_stale() sweep
// that judged the very same name stale. Both sides cross named sync
// points ("shm:reclaim_*", "shm:stale_unlink"), so the explorer drives
// every interleaving of unlink/create/verify. Invariants, under ALL
// schedules:
//  - the owner's construction always succeeds (the verify-and-retry loop
//    absorbs a sweep stealing its freshly created segment; it never
//    surfaces a spurious EEXIST);
//  - the owner's mapping holds its data;
//  - the NAME never refers to anything but the owner's segment. (It may
//    legitimately be absent: the name embeds a dead pid, so a sweep
//    ordered entirely after the owner's verify may still unlink it — the
//    owner keeps its mapping, exactly like an unlinked open file.)
TEST(Segment, ReclaimVsCleanupSweepNeverCorruptsLiveOwner) {
  const pid_t dead = dead_pid();
  const std::string prefix = "rcrace" + std::to_string(getpid());
  const std::string name =
      "/hlsmpc." + prefix + "." + std::to_string(dead) + ".0";

  check::ExploreOptions eo;
  eo.schedules = 150;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res =
      explorer.explore([&](ult::Executor& ex) {
        // Fresh corpse per attempt (an earlier attempt's sweep or owner
        // destructor may have unlinked the name).
        shm_unlink(name.c_str());
        {
          const int fd =
              shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
          if (fd < 0 || ftruncate(fd, 4096) != 0) {
            if (fd >= 0) close(fd);
            throw std::runtime_error("corpse setup failed");
          }
          close(fd);
        }
        std::unique_ptr<shm::NamedSegment> owner;
        std::string owner_error;
        const std::vector<int> pins{0, 1};
        ex.run(2, pins, [&](ult::TaskContext& ctx) {
          if (ctx.task_id() == 0) {
            try {
              owner = std::make_unique<shm::NamedSegment>(
                  name, 4096, nullptr, /*owner=*/true, &ctx);
              static_cast<unsigned char*>(owner->base())[0] = 0x5A;
            } catch (const shm::ShmError& e) {
              owner_error = e.what();
            }
          } else {
            shm::NamedSegment::cleanup_stale(prefix, &ctx);
          }
        });
        if (owner == nullptr) {
          throw std::runtime_error("owner lost the reclaim race: " +
                                   owner_error);
        }
        if (static_cast<unsigned char*>(owner->base())[0] != 0x5A) {
          throw std::runtime_error("owner's mapping lost its data");
        }
        try {
          shm::NamedSegment view(name, 4096, nullptr, /*owner=*/false);
          if (static_cast<unsigned char*>(view.base())[0] != 0x5A) {
            throw std::runtime_error(
                "name refers to a segment that is not the live owner's");
          }
        } catch (const shm::ShmError&) {
          // Swept after the owner's verify: name absent, mapping intact.
        }
      });
  EXPECT_TRUE(res.ok) << res.repro;
  shm_unlink(name.c_str());
}

TEST(Arena, AllocateWriteFree) {
  std::vector<std::byte> mem(1 << 16);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  void* p = a->allocate(100);
  std::memset(p, 0xAB, 100);
  EXPECT_GT(a->bytes_used(), 0u);
  a->deallocate(p);
  EXPECT_EQ(a->bytes_used(), 0u);
}

TEST(Arena, CoalescingKeepsFreeListSmall) {
  std::vector<std::byte> mem(1 << 16);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  void* p1 = a->allocate(256);
  void* p2 = a->allocate(256);
  void* p3 = a->allocate(256);
  a->deallocate(p1);
  a->deallocate(p3);
  a->deallocate(p2);  // merges with both neighbours and the tail
  EXPECT_EQ(a->free_blocks(), 1);
  EXPECT_EQ(a->bytes_used(), 0u);
}

TEST(Arena, AlignedAllocation) {
  std::vector<std::byte> mem(1 << 16);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  void* p = a->allocate(64, 256);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
  a->deallocate(p);
  EXPECT_EQ(a->bytes_used(), 0u);
}

TEST(Arena, ExhaustionThrowsArenaExhausted) {
  std::vector<std::byte> mem(4096);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  try {
    a->allocate(1 << 20);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::arena_exhausted);
    EXPECT_TRUE(e.recoverable());
    EXPECT_NE(std::string(e.what()).find("out of space"), std::string::npos);
  }
}

TEST(Arena, RandomAllocFreeIntegrity) {
  std::vector<std::byte> mem(1 << 18);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  std::uint64_t seed = 99;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1;
    return seed >> 33;
  };
  struct Alloc {
    unsigned char* p;
    std::size_t n;
    unsigned char tag;
  };
  std::vector<Alloc> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || next() % 2 == 0) {
      const std::size_t n = 1 + next() % 700;
      auto* p = static_cast<unsigned char*>(a->allocate(n));
      const auto tag = static_cast<unsigned char>(next());
      std::memset(p, tag, n);
      live.push_back({p, n, tag});
    } else {
      const std::size_t k = next() % live.size();
      for (std::size_t j = 0; j < live[k].n; ++j) {
        ASSERT_EQ(live[k].p[j], live[k].tag) << "heap corruption";
      }
      a->deallocate(live[k].p);
      live[k] = live.back();
      live.pop_back();
    }
  }
  for (const Alloc& al : live) {
    for (std::size_t j = 0; j < al.n; ++j) {
      ASSERT_EQ(al.p[j], al.tag);
    }
    a->deallocate(al.p);
  }
  EXPECT_EQ(a->bytes_used(), 0u);
  EXPECT_EQ(a->free_blocks(), 1);
}

TEST(Arena, AttachSeesSameState) {
  std::vector<std::byte> mem(1 << 16);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  void* p = a->allocate(64);
  shm::Arena* b = shm::Arena::attach(mem.data());
  EXPECT_EQ(b->bytes_used(), a->bytes_used());
  b->deallocate(p);
  EXPECT_EQ(a->bytes_used(), 0u);
  EXPECT_THROW(shm::Arena::attach(mem.data() + 64), shm::ShmError);
}

// ---- process-based node (paper §IV.C end to end) ----

TEST(ProcessNode, SharesNodeVariableAcrossProcesses) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("table", 1024 * sizeof(double), topo::node_scope());
  node.run([](shm::ProcessTask& t) {
    auto* table = t.var_as<double>("table");
    // One process per node initializes (the single directive).
    if (t.single_enter("table")) {
      for (int i = 0; i < 1024; ++i) table[i] = i * 0.5;
      t.single_done("table");
    }
    // Every process must observe the initialization through the shared
    // segment (same virtual address in each process).
    for (int i = 0; i < 1024; ++i) {
      if (table[i] != i * 0.5) _exit(3);
    }
  });
}

TEST(ProcessNode, ScopedVariablesUseDistinctInstances) {
  const topo::Machine m = topo::Machine::core2_cluster_node();  // 2 sockets
  shm::ProcessNode node(m, 8);
  node.add_var("per_numa", sizeof(long), topo::numa_scope());
  node.run([](shm::ProcessTask& t) {
    auto* v = t.var_as<long>("per_numa");
    if (t.single_enter("per_numa")) {
      *v = 100 + t.rank() / 4;  // numa id of the writer
      t.single_done("per_numa");
    }
    t.barrier("per_numa");
    const long expected = 100 + t.rank() / 4;
    if (*v != expected) _exit(3);
  });
}

TEST(ProcessNode, BarrierSynchronizesProcesses) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("counter", sizeof(long), topo::node_scope());
  node.run([](shm::ProcessTask& t) {
    auto* v = t.var_as<long>("counter");
    for (int round = 0; round < 3; ++round) {
      __atomic_add_fetch(v, 1, __ATOMIC_SEQ_CST);
      t.barrier("counter");
      const long seen = __atomic_load_n(v, __ATOMIC_SEQ_CST);
      if (seen < 4L * (round + 1)) _exit(3);
      t.barrier("counter");
    }
  });
}

TEST(ProcessNode, SharedMallocVisibleEverywhere) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("B", sizeof(double*), topo::node_scope());
  node.run([](shm::ProcessTask& t) {
    auto** b = t.var_as<double*>("B");
    // Heap allocation inside a single goes to the shared arena: the
    // pointer is meaningful in every process (§IV.C).
    if (t.single_enter("B")) {
      *b = static_cast<double*>(t.shared_malloc(256 * sizeof(double)));
      for (int i = 0; i < 256; ++i) (*b)[i] = i + 0.25;
      t.single_done("B");
    }
    for (int i = 0; i < 256; ++i) {
      if ((*b)[i] != i + 0.25) _exit(3);
    }
    t.barrier("B");
    if (t.single_enter("B")) {
      t.shared_free(*b);
      t.single_done("B");
    }
  });
}

TEST(ProcessNode, ChildFailureSurfaces) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 2);
  node.add_var("x", 8, topo::node_scope());
  EXPECT_THROW(node.run([](shm::ProcessTask& t) {
                 if (t.rank() == 1) _exit(9);
               }),
               shm::ShmError);
}

TEST(ProcessNode, Misuse) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 2);
  node.add_var("x", 8, topo::node_scope());
  EXPECT_THROW(node.add_var("x", 8, topo::node_scope()), shm::ShmError);
  node.run([](shm::ProcessTask& t) {
    bool threw = false;
    try {
      t.var("nope");
    } catch (const shm::ShmError&) {
      threw = true;
    }
    if (!threw) _exit(3);
  });
  EXPECT_THROW(node.run([](shm::ProcessTask&) {}), shm::ShmError);
  EXPECT_THROW(shm::ProcessNode(m, 99), shm::ShmError);
}

// ---- crash containment (robust sync + SIGCHLD supervision) ----

TEST(ProcessNode, SigkilledRankMidBarrierIsNamedNotHung) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("x", 8, topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    node.run([](shm::ProcessTask& t) {
      if (t.rank() == 2) raise(SIGKILL);  // dies on the way into the barrier
      t.barrier("x");
    });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::task_died);
    EXPECT_FALSE(e.recoverable());
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("killed by signal 9"),
              std::string::npos)
        << e.what();
  }
  // Detected by SIGCHLD supervision + abort flag, nowhere near the 30 s
  // sync timeout (the pre-containment behaviour was an indefinite hang).
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(ProcessNode, SigkilledSingleWinnerIsNamedNotHung) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("x", 8, topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    node.run([](shm::ProcessTask& t) {
      if (t.single_enter("x")) {
        raise(SIGKILL);  // the winner dies before single_done
      }
    });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::task_died);
    EXPECT_NE(std::string(e.what()).find("killed by signal 9"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("rank "), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(ProcessNode, LivelockedRankHitsSyncTimeout) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode::Options opts;
  opts.sync_timeout_ms = 300;
  opts.poll_interval_ms = 20;
  opts.term_grace_ms = 200;
  shm::ProcessNode node(m, 4, opts);
  node.add_var("x", 8, topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    node.run([](shm::ProcessTask& t) {
      if (t.rank() == 3) {
        // Alive but never arriving: only the timed wait can diagnose it.
        for (;;) pause();
      }
      t.barrier("x");
    });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::sync_timeout);
    EXPECT_NE(std::string(e.what()).find("timed out inside a sync primitive"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

// An RMA-style passive-target lock word (mpi/rma.hpp's layout: bit 63 =
// exclusive, bits 32.. = owner+1) lives in node-shared storage; the rank
// holding it exclusively is SIGKILLed. The supervisor must name the dead
// rank, and the surviving ranks must recover the orphaned word the way
// robust mutexes signal EOWNERDEAD: observe the holder is gone, restore
// the word to a consistent (free) state, and take the lock themselves.
TEST(ProcessNode, SigkilledExclusiveLockHolderIsNamedAndWordRecovered) {
  constexpr std::uint64_t kExclBit = std::uint64_t{1} << 63;
  const auto excl_word = [](int rank) {
    return kExclBit | (static_cast<std::uint64_t>(rank + 1) << 32);
  };
  const std::string marker =
      testing::TempDir() + "/hlsmpc_rma_lock_recovery_marker";
  std::remove(marker.c_str());

  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  // [0] = lock word, [1] = holder pid (so survivors can prove it died).
  node.add_var("win", 2 * sizeof(std::uint64_t), topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    node.run([&](shm::ProcessTask& t) {
      auto* base = t.var_as<std::uint64_t>("win");
      auto* word = reinterpret_cast<std::atomic<std::uint64_t>*>(base);
      auto* holder_pid = reinterpret_cast<std::atomic<std::uint64_t>*>(base + 1);
      if (t.rank() == 1) {
        std::uint64_t expected = 0;
        word->compare_exchange_strong(expected, excl_word(1));
        holder_pid->store(static_cast<std::uint64_t>(getpid()));
        raise(SIGKILL);  // dies holding the exclusive lock
      }
      // Survivors: wait until rank 1 provably holds the word, then wait
      // for its death (ESRCH once the supervisor reaped it) and recover.
      while (word->load() != excl_word(1) || holder_pid->load() == 0) {
        usleep(500);
      }
      const pid_t dead = static_cast<pid_t>(holder_pid->load());
      while (!(kill(dead, 0) == -1 && errno == ESRCH)) usleep(500);
      std::uint64_t orphaned = excl_word(1);
      if (word->compare_exchange_strong(orphaned, 0)) {
        // This rank made the word consistent again; leave the evidence.
        if (FILE* f = fopen(marker.c_str(), "w")) fclose(f);
      }
      // The recovered word must be takeable by a survivor.
      for (;;) {
        std::uint64_t free_word = 0;
        if (word->compare_exchange_strong(free_word, excl_word(t.rank()))) {
          word->store(0);
          break;
        }
        usleep(100);
      }
      t.barrier("win");  // rank 1 never arrives: the supervisor reports it
    });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::task_died);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("killed by signal 9"),
              std::string::npos)
        << e.what();
  }
  // Exactly one survivor won the recovery CAS and left the marker.
  FILE* f = fopen(marker.c_str(), "r");
  EXPECT_NE(f, nullptr) << "no survivor recovered the orphaned lock word";
  if (f != nullptr) fclose(f);
  std::remove(marker.c_str());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(20));
}
