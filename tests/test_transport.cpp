// Transport conformance suite.
//
// Every Transport implementation must honor the same contract
// (transport.hpp): non-overtaking delivery per (source, tag, context)
// channel, zero-byte messages, self-sends, wildcard receives, probe
// visibility, truncation errors on both match paths, and clean
// exhaustion (TransportError{transport_exhausted}, nothing enqueued).
// The suite runs parameterized over the intra-node shared-memory
// transport and the simulated inter-node fabric so a future transport
// (e.g. the socket one) plugs into the same checklist.
//
// Also here: the HLSMPC_COLL_* environment overrides of CollConfig
// (coll_config_from_env) with their range clamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "memtrack/memtrack.hpp"
#include "mpi/runtime.hpp"
#include "mpi/shm_transport.hpp"
#include "mpi/sim_fabric.hpp"

namespace fault = hlsmpc::fault;
namespace mpi = hlsmpc::mpi;

namespace {

/// Minimal preemptive context for driving a transport without an
/// executor: the conformance cases below are single-threaded (sends on
/// both transports complete eagerly for small payloads; rendezvous
/// completes at match time), so a plain yield suffices.
class TestCtx final : public hlsmpc::ult::TaskContext {
 public:
  explicit TestCtx(int id) { set_task_id(id); }
  void yield() override { std::this_thread::yield(); }
  bool cooperative() const override { return false; }
};

/// By-value convenience over transport_wait for freshly returned requests.
void wait(hlsmpc::ult::TaskContext& ctx, mpi::Request req,
          mpi::Status* st = nullptr) {
  mpi::transport_wait(ctx, req, st);
}

struct Harness {
  virtual ~Harness() = default;
  virtual mpi::Transport& t() = 0;
};

struct ShmHarness : Harness {
  ShmHarness(int n, mpi::TransportLimits limits)
      : bufs(mpi::BufferConfig{}, n, n, tracker), tr(n, bufs, limits) {}
  hlsmpc::memtrack::Tracker tracker;
  mpi::BufferManager bufs;
  mpi::ShmTransport tr;
  mpi::Transport& t() override { return tr; }
};

struct FabricHarness : Harness {
  FabricHarness(int n, mpi::TransportLimits limits) : tr(make(n, limits)) {}
  static mpi::SimFabricTransport::Options make(int n,
                                               mpi::TransportLimits limits) {
    mpi::SimFabricTransport::Options o;
    o.nranks = n;
    o.ranks_per_node = 2;
    o.limits = limits;
    return o;
  }
  mpi::SimFabricTransport tr;
  mpi::Transport& t() override { return tr; }
};

enum class Kind { shm, fabric };

std::unique_ptr<Harness> make_harness(Kind k, int n,
                                      mpi::TransportLimits limits = {}) {
  if (k == Kind::shm) return std::make_unique<ShmHarness>(n, limits);
  return std::make_unique<FabricHarness>(n, limits);
}

class TransportConformance : public testing::TestWithParam<Kind> {
 protected:
  static constexpr int kCtx = 0;
  std::unique_ptr<Harness> h_ = make_harness(GetParam(), 4);
  mpi::Transport& t_ = h_->t();
  TestCtx c0_{0}, c1_{1}, c2_{2};
};

std::string kind_name(const testing::TestParamInfo<Kind>& info) {
  return info.param == Kind::shm ? "shm" : "fabric";
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         testing::Values(Kind::shm, Kind::fabric),
                         kind_name);

TEST_P(TransportConformance, NamesAndEndpoints) {
  EXPECT_EQ(t_.nendpoints(), 4);
  EXPECT_STREQ(t_.name(), GetParam() == Kind::shm ? "shm" : "sim_fabric");
}

TEST_P(TransportConformance, DeliversPayloadAndStatus) {
  const int v = 42;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 7, kCtx);
  int got = 0;
  mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 7, kCtx);
  mpi::Status st;
  mpi::transport_wait(c1_, r, &st);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(st.bytes, sizeof(int));
}

TEST_P(TransportConformance, ZeroByteMessage) {
  mpi::Request s = t_.isend(c0_, 0, 1, 1, nullptr, 0, 3, kCtx);
  mpi::Request r = t_.irecv(c1_, 1, nullptr, 0, 0, 3, kCtx);
  mpi::Status st;
  mpi::transport_wait(c1_, r, &st);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.source, 0);
}

TEST_P(TransportConformance, SelfSend) {
  const double v = 2.5;
  mpi::Request s = t_.isend(c0_, 0, 0, 0, &v, sizeof(v), 1, kCtx);
  double got = 0;
  mpi::Request r = t_.irecv(c0_, 0, &got, sizeof(got), 0, 1, kCtx);
  mpi::transport_wait(c0_, r);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(got, 2.5);
}

TEST_P(TransportConformance, NonOvertakingSameChannel) {
  // Four sends on one (source, tag, context) channel must be received in
  // send order, whether matched from the unexpected queue...
  for (int i = 0; i < 4; ++i) {
    mpi::Request s = t_.isend(c0_, 0, 1, 1, &i, sizeof(i), 9, kCtx);
    mpi::transport_wait(c0_, s);
  }
  for (int i = 0; i < 4; ++i) {
    int got = -1;
    mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 9, kCtx);
    mpi::transport_wait(c1_, r);
    EXPECT_EQ(got, i);
  }
}

TEST_P(TransportConformance, WildcardSourceAndTag) {
  const int a = 10, b = 20;
  mpi::Request s1 = t_.isend(c0_, 0, 1, 1, &a, sizeof(a), 4, kCtx);
  mpi::Request s2 = t_.isend(c2_, 2, 1, 1, &b, sizeof(b), 8, kCtx);
  mpi::transport_wait(c0_, s1);
  mpi::transport_wait(c2_, s2);
  int got = 0;
  mpi::Status st;
  mpi::Request r1 =
      t_.irecv(c1_, 1, &got, sizeof(got), mpi::kAnySource, 8, kCtx);
  mpi::transport_wait(c1_, r1, &st);
  EXPECT_EQ(got, 20);
  EXPECT_EQ(st.source, 2);
  mpi::Request r2 =
      t_.irecv(c1_, 1, &got, sizeof(got), 0, mpi::kAnyTag, kCtx);
  mpi::transport_wait(c1_, r2, &st);
  EXPECT_EQ(got, 10);
  EXPECT_EQ(st.tag, 4);
}

TEST_P(TransportConformance, ContextsDoNotCrossMatch) {
  const int a = 1, b = 2;
  mpi::Request s1 = t_.isend(c0_, 0, 1, 1, &a, sizeof(a), 5, /*context=*/0);
  mpi::Request s2 = t_.isend(c0_, 0, 1, 1, &b, sizeof(b), 5, /*context=*/1);
  mpi::transport_wait(c0_, s1);
  mpi::transport_wait(c0_, s2);
  int got = 0;
  mpi::Request r =
      t_.irecv(c1_, 1, &got, sizeof(got), 0, 5, /*context=*/1);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(got, 2);  // the context-1 message, not the earlier context-0 one
}

TEST_P(TransportConformance, ProbeSeesPendingMessage) {
  mpi::Status st;
  EXPECT_FALSE(t_.iprobe(1, mpi::kAnySource, mpi::kAnyTag, kCtx, &st));
  const int v = 5;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 6, kCtx);
  mpi::transport_wait(c0_, s);
  ASSERT_TRUE(t_.iprobe(1, mpi::kAnySource, mpi::kAnyTag, kCtx, &st));
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 6);
  EXPECT_EQ(st.bytes, sizeof(int));
  // Probing must not consume: the receive still matches.
  int got = 0;
  mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 6, kCtx);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(got, 5);
}

TEST_P(TransportConformance, TruncationOnUnexpectedMatchFailsRecv) {
  const std::int64_t v = 1;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
  mpi::transport_wait(c0_, s);
  std::int32_t small = 0;
  mpi::Request r = t_.irecv(c1_, 1, &small, sizeof(small), 0, 2, kCtx);
  EXPECT_THROW(mpi::transport_wait(c1_, r), mpi::MpiError);
}

TEST_P(TransportConformance, TruncationOnPostedMatchFailsBothSides) {
  std::int32_t small = 0;
  mpi::Request r = t_.irecv(c1_, 1, &small, sizeof(small), 0, 2, kCtx);
  const std::int64_t v = 1;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
  EXPECT_THROW(mpi::transport_wait(c1_, r), mpi::MpiError);
  EXPECT_THROW(mpi::transport_wait(c0_, s), mpi::MpiError);
}

TEST_P(TransportConformance, BadEndpointIsAnError) {
  const int v = 0;
  EXPECT_THROW(t_.isend(c0_, 0, 99, 99, &v, sizeof(v), 0, kCtx),
               mpi::MpiError);
  int got = 0;
  EXPECT_THROW(t_.irecv(c0_, 99, &got, sizeof(got), 0, 0, kCtx),
               mpi::MpiError);
}

TEST_P(TransportConformance, ExhaustionByMessageCountIsCleanAndRecoverable) {
  mpi::TransportLimits lim;
  lim.max_unexpected_msgs = 2;
  auto h = make_harness(GetParam(), 2, lim);
  mpi::Transport& t = h->t();
  const int v = 1;
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  try {
    t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx);
    FAIL() << "third unmatched send must exhaust the queue";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
    EXPECT_TRUE(hlsmpc::recoverable(e.code()));
  }
  // Clean degradation: nothing was enqueued, draining one message frees a
  // slot and the transport works again.
  int got = 0;
  TestCtx c1{1};
  wait(c1, t.irecv(c1, 1, &got, sizeof(got), 0, 0, kCtx));
  EXPECT_EQ(got, 1);
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
}

TEST_P(TransportConformance, ExhaustionByByteBudget) {
  mpi::TransportLimits lim;
  lim.max_unexpected_bytes = 12;
  auto h = make_harness(GetParam(), 2, lim);
  mpi::Transport& t = h->t();
  const std::int64_t v = 7;
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  try {
    t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx);
    FAIL() << "byte budget must refuse the second 8-byte send";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
  }
  // A posted receive bypasses the unexpected queue entirely.
  std::int64_t got = 0;
  TestCtx c1{1};
  mpi::Request r = t.irecv(c1, 1, &got, sizeof(got), 0, 1, kCtx);
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 1, kCtx));
  mpi::transport_wait(c1, r);
  EXPECT_EQ(got, 7);
}

TEST_P(TransportConformance, StatsCountTraffic) {
  const auto before = t_.stats().messages.load();
  const int v = 3;
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 0, kCtx));
  EXPECT_EQ(t_.stats().messages.load(), before + 1);
  EXPECT_GE(t_.stats().bytes.load(), sizeof(int));
}

// ---- large payloads: rendezvous (shm) vs always-copy (fabric) ----

TEST_P(TransportConformance, LargePayloadRoundTrip) {
  const std::size_t n = 64 * 1024;  // past the 8 KB eager threshold
  std::vector<std::uint8_t> in(n), out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  mpi::Request r = t_.irecv(c1_, 1, out.data(), n, 0, 11, kCtx);
  mpi::Request s = t_.isend(c0_, 0, 1, 1, in.data(), n, 11, kCtx);
  mpi::transport_wait(c0_, s);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(in, out);
}

// ---- fabric wire buffers: drained captures are reused per endpoint ----

TEST(SimFabric, ReusedWireBuffersCarryMessageBytesOnly) {
  // Two rounds of a 320 KiB and a 1 KiB message queued at endpoint 1
  // before either is received. In the second round both captures reuse
  // the first round's drained buffers, so the 1 KiB message rides in a
  // buffer sized for 320 KiB: the receive must still get exactly its
  // 1 KiB, and the byte budget counts message bytes, not capacity.
  constexpr std::size_t kBig = 320 * 1024;
  constexpr std::size_t kSmall = 1024;
  mpi::TransportLimits limits;
  limits.max_unexpected_bytes = kBig + kSmall;
  FabricHarness h(4, limits);
  mpi::SimFabricTransport& fab = h.tr;
  TestCtx c1{1}, c2{2};
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto fill = static_cast<std::uint8_t>(0x10 + round);
    std::vector<std::uint8_t> big(kBig, fill);
    std::vector<std::uint8_t> small(kSmall,
                                    static_cast<std::uint8_t>(fill + 0x40));
    wait(c2, fab.isend(c2, 2, 1, 2, big.data(), kBig, 5, 0));
    wait(c2, fab.isend(c2, 2, 1, 2, small.data(), kSmall, 6, 0));
    std::vector<std::uint8_t> got_big(kBig, 0);
    wait(c1, fab.irecv(c1, 1, got_big.data(), kBig, 2, 5, 0));
    EXPECT_EQ(got_big, big);
    constexpr std::uint8_t kSentinel = 0xEE;
    std::vector<std::uint8_t> got(kBig, kSentinel);
    mpi::Status st;
    wait(c1, fab.irecv(c1, 1, got.data(), got.size(), 2, 6, 0), &st);
    EXPECT_EQ(st.bytes, kSmall);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), got.begin()));
    EXPECT_EQ(std::count(got.begin() + kSmall, got.end(), kSentinel),
              static_cast<std::ptrdiff_t>(kBig - kSmall));
  }
  EXPECT_GE(fab.spare_wire_bytes(1), kBig + kSmall);
  // A replacement node starts with an empty NIC: nothing is kept.
  fab.revive_node(0);
  EXPECT_EQ(fab.spare_wire_bytes(0), 0u);
  EXPECT_EQ(fab.spare_wire_bytes(1), 0u);
}

// ---- transient-failure retry (the "shm:flap" / "fabric:flap" sites) ----

namespace {

const char* flap_site(Kind k) {
  return k == Kind::shm ? "shm:flap" : "fabric:flap";
}

}  // namespace

TEST_P(TransportConformance, TransientFlapIsRetriedThenSucceeds) {
  // Endpoint 1 fails transiently three times; the transport must absorb
  // the flaps with backed-off retries and then deliver normally — the
  // caller never sees an error.
  fault::FaultInjector inj;
  inj.arm(flap_site(GetParam()), /*nth=*/1, /*index=*/1, /*times=*/3);
  fault::ScopedFaultInjection scoped(inj);
  const int v = 7;
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 2, kCtx));
  EXPECT_EQ(got, 7);
  EXPECT_EQ(inj.fired(flap_site(GetParam())), 3u);
  EXPECT_EQ(t_.stats().link_flaps.load(), 3u);
  EXPECT_EQ(t_.stats().retries.load(), 3u);
}

TEST_P(TransportConformance, PersistentFlapExhaustsBudgetWithoutPoison) {
  // A link that never comes back must surface as transport_exhausted once
  // the bounded retry budget runs out — a TRANSIENT-class failure, not a
  // NodeDeadError: reclassifying a flap as a death is cluster
  // supervision's call, never the transport's.
  fault::FaultInjector inj;
  inj.arm_always(flap_site(GetParam()), /*index=*/1);
  fault::ScopedFaultInjection scoped(inj);
  const int v = 1;
  try {
    t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
    FAIL() << "send through a permanently flapping link must throw";
  } catch (const mpi::NodeDeadError&) {
    FAIL() << "retry exhaustion must not be classified as a node death";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
    EXPECT_TRUE(hlsmpc::recoverable(e.code()));
  }
  EXPECT_GE(t_.stats().retries.load(), 1u);
  if (GetParam() == Kind::fabric) {
    auto& fab = dynamic_cast<mpi::SimFabricTransport&>(t_);
    EXPECT_EQ(fab.first_dead_node(), -1);
  }
  // The flap only wedged this one operation: once the link heals, the
  // same channel delivers.
  inj.disarm(flap_site(GetParam()));
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 2, kCtx));
  EXPECT_EQ(got, 1);
}

// ---- CollConfig environment overrides (coll_config_from_env) ----

namespace {

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) { unset(); }
  ~EnvGuard() { unset(); }
  void set(const char* v) { setenv(name_, v, /*overwrite=*/1); }
  void unset() { unsetenv(name_); }
  const char* name_;
};

}  // namespace

TEST(CollConfigEnv, UnsetLeavesBaseUntouched) {
  mpi::CollConfig base;
  base.small_threshold = 777;
  const mpi::CollConfig got = mpi::coll_config_from_env(base);
  EXPECT_EQ(got.small_threshold, 777u);
  EXPECT_EQ(got.enable_shm, base.enable_shm);
  EXPECT_EQ(got.pipeline_threshold, base.pipeline_threshold);
  EXPECT_EQ(got.fragment_bytes, base.fragment_bytes);
}

TEST(CollConfigEnv, OverridesApply) {
  EnvGuard shm("HLSMPC_COLL_SHM"), small("HLSMPC_COLL_SMALL_THRESHOLD"),
      pipe("HLSMPC_COLL_PIPELINE_THRESHOLD"),
      frag("HLSMPC_COLL_FRAGMENT_BYTES"), yield("HLSMPC_COLL_PIPELINE_YIELD");
  shm.set("0");
  small.set("512");
  pipe.set("65536");
  frag.set("8192");
  yield.set("0");
  const mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_FALSE(got.enable_shm);
  EXPECT_EQ(got.small_threshold, 512u);
  EXPECT_EQ(got.pipeline_threshold, 65536u);
  EXPECT_EQ(got.fragment_bytes, 8192u);
  EXPECT_FALSE(got.pipeline_yield);
}

TEST(CollConfigEnv, ValuesAreRangeClamped) {
  EnvGuard small("HLSMPC_COLL_SMALL_THRESHOLD"),
      pipe("HLSMPC_COLL_PIPELINE_THRESHOLD"),
      frag("HLSMPC_COLL_FRAGMENT_BYTES");
  small.set("999999999");  // clamped to 1 MiB
  pipe.set("4");           // clamped up to small_threshold
  frag.set("7");           // clamped to 1 KiB
  mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.small_threshold, std::size_t{1024 * 1024});
  EXPECT_EQ(got.pipeline_threshold, got.small_threshold);
  EXPECT_EQ(got.fragment_bytes, 1024u);
  frag.set("999999999");  // clamped to 16 MiB
  got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.fragment_bytes, std::size_t{16 * 1024 * 1024});
}

TEST(CollConfigEnv, PipelineThresholdZeroMeansNever) {
  EnvGuard pipe("HLSMPC_COLL_PIPELINE_THRESHOLD");
  pipe.set("0");
  const mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.pipeline_threshold, SIZE_MAX);
}

TEST(CollConfigEnv, GarbageIsIgnored) {
  EnvGuard small("HLSMPC_COLL_SMALL_THRESHOLD"), shm("HLSMPC_COLL_SHM");
  small.set("not-a-number");
  shm.set("banana");
  mpi::CollConfig base;
  base.small_threshold = 321;
  const mpi::CollConfig got = mpi::coll_config_from_env(base);
  EXPECT_EQ(got.small_threshold, 321u);
  EXPECT_EQ(got.enable_shm, base.enable_shm);
}

// ---- retry backoff jitter seeding --------------------------------------
//
// The bug being pinned: every RetryBackoff used to be seeded with one
// compile-time constant, so all ranks riding out the same flapping link
// drew the IDENTICAL jitter sequence and retried in lockstep — the
// stampede jitter exists to break. Transports now seed from
// (rank, endpoint, burst epoch).

namespace {

std::vector<long> delay_sequence(const mpi::RetryPolicy& pol,
                                 std::uint64_t seed) {
  mpi::RetryBackoff b(pol, seed);
  std::vector<long> v;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    v.push_back(static_cast<long>(b.next_delay(attempt).count()));
  }
  return v;
}

}  // namespace

TEST(RetryBackoff, JitterSeedDecorrelatesPeersDeterministically) {
  const mpi::RetryPolicy pol;
  // Two ranks retrying against the same endpoint in the same burst must
  // take different jitter — no lockstep stampede.
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(1, 3, 0)));
  // One rank's successive bursts at one endpoint decorrelate too (the
  // per-transport epoch counter), as do its concurrent ops on distinct
  // endpoints.
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(0, 3, 1)));
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(0, 4, 0)));
  // Fully deterministic: the same (rank, endpoint, epoch) triple replays
  // the identical sequence, so explorer repros stay exact.
  EXPECT_EQ(delay_sequence(pol, mpi::jitter_seed(2, 7, 5)),
            delay_sequence(pol, mpi::jitter_seed(2, 7, 5)));
  // Jitter stays within the +/- 25% envelope around base..cap.
  for (long d : delay_sequence(pol, mpi::jitter_seed(1, 1, 1))) {
    EXPECT_GE(d, pol.backoff_base.count() * 3 / 4);
    EXPECT_LE(d, pol.backoff_cap.count() * 5 / 4);
  }
}
