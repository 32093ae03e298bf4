//===- FaultKernelTest.cpp - fault injection + degradation ladder tests ------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the deterministic fault-injection layer (DESIGN.md §5i) and
/// the hardening above it: FaultSpec parsing, schedule determinism (same
/// seed → identical decision stream and digest), FaultKernel jitter and
/// spurious-wake semantics over the simulated kernel, the async pipeline's
/// graceful-degradation ladder (escalate under pressure, recover when the
/// ring drains, structure never shed), the builder-thread watchdog, and —
/// on Linux — an end-to-end AcmeAir run over each wire backend (epoll,
/// io_uring) under an aggressive fault mix where every request still gets
/// accounted for.
///
//===----------------------------------------------------------------------===//

#include "ag/AsyncPipeline.h"
#include "sim/Fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#ifdef __linux__
#include "apps/cluster/Harness.h"
#endif

using namespace asyncg;
using namespace asyncg::sim;

namespace {

//===----------------------------------------------------------------------===//
// FaultSpec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesKindRateListAndRoundTrips) {
  FaultSpec S;
  std::string Err;
  ASSERT_TRUE(FaultSpec::parse("eintr:0.5,shortwrite:0.25,reset:1", S, &Err))
      << Err;
  EXPECT_DOUBLE_EQ(S.rate(FaultKind::Eintr), 0.5);
  EXPECT_DOUBLE_EQ(S.rate(FaultKind::ShortWrite), 0.25);
  EXPECT_DOUBLE_EQ(S.rate(FaultKind::Reset), 1.0);
  EXPECT_DOUBLE_EQ(S.rate(FaultKind::Emfile), 0.0);
  EXPECT_TRUE(S.any());

  // str() is parseable back to the same rates.
  FaultSpec S2;
  ASSERT_TRUE(FaultSpec::parse(S.str(), S2, &Err)) << Err;
  for (size_t K = 0; K != NumFaultKinds; ++K)
    EXPECT_DOUBLE_EQ(S.Rate[K], S2.Rate[K]);
}

TEST(FaultSpec, DefaultTokenEnablesEveryKind) {
  FaultSpec S;
  ASSERT_TRUE(FaultSpec::parse("default", S, nullptr));
  for (size_t K = 0; K != NumFaultKinds; ++K)
    EXPECT_GT(S.Rate[K], 0.0) << faultKindName(static_cast<FaultKind>(K));
}

TEST(FaultSpec, RejectsUnknownKindsAndBadRates) {
  FaultSpec S;
  std::string Err;
  EXPECT_FALSE(FaultSpec::parse("sigsegv:0.5", S, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultSpec::parse("eintr:1.5", S, &Err));
  EXPECT_FALSE(FaultSpec::parse("eintr:-0.1", S, &Err));
  EXPECT_FALSE(FaultSpec::parse("eintr", S, &Err));
  // "" is the canonical form of a no-fault spec (str() round-trip).
  EXPECT_TRUE(FaultSpec::parse("", S, &Err));
  EXPECT_FALSE(S.any());
}

//===----------------------------------------------------------------------===//
// Injector determinism
//===----------------------------------------------------------------------===//

TEST(FaultInjector, SameSeedReplaysIdenticalSchedule) {
  FaultSpec S;
  ASSERT_TRUE(FaultSpec::parse("default", S, nullptr));
  FaultInjector A(S, 1234), B(S, 1234);
  for (int I = 0; I != 5000; ++I) {
    FaultKind K = static_cast<FaultKind>(I % NumFaultKinds);
    EXPECT_EQ(A.shouldInject(K), B.shouldInject(K)) << "decision " << I;
  }
  EXPECT_EQ(A.scheduleDigest(), B.scheduleDigest());
  EXPECT_EQ(A.decisions(), 5000u);
  EXPECT_EQ(A.totalInjected(), B.totalInjected());
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultSpec S;
  ASSERT_TRUE(FaultSpec::parse("default", S, nullptr));
  FaultInjector A(S, 1), B(S, 2);
  for (int I = 0; I != 5000; ++I) {
    FaultKind K = static_cast<FaultKind>(I % NumFaultKinds);
    A.shouldInject(K);
    B.shouldInject(K);
  }
  EXPECT_NE(A.scheduleDigest(), B.scheduleDigest());
}

TEST(FaultInjector, DigestCoversOutcomesNotJustCounts) {
  // Two enabled kinds with swapped rates produce the same *number* of
  // decisions but a different fire pattern — the digest must see it.
  FaultSpec SA, SB;
  ASSERT_TRUE(FaultSpec::parse("eintr:0.9,reset:0.1", SA, nullptr));
  ASSERT_TRUE(FaultSpec::parse("eintr:0.1,reset:0.9", SB, nullptr));
  FaultInjector A(SA, 7), B(SB, 7);
  for (int I = 0; I != 2000; ++I) {
    A.shouldInject(FaultKind::Eintr);
    A.shouldInject(FaultKind::Reset);
    B.shouldInject(FaultKind::Eintr);
    B.shouldInject(FaultKind::Reset);
  }
  EXPECT_EQ(A.decisions(), B.decisions());
  EXPECT_NE(A.scheduleDigest(), B.scheduleDigest());
}

TEST(FaultInjector, JitterAndShortWriteStayInBounds) {
  FaultSpec S;
  S.Rate[static_cast<size_t>(FaultKind::Jitter)] = 1.0;
  S.MaxJitterUs = 100;
  FaultInjector Inj(S, 99);
  for (int I = 0; I != 2000; ++I) {
    uint64_t J = Inj.jitterUs();
    EXPECT_GE(J, 1u);
    EXPECT_LE(J, 100u);
  }
  for (size_t N : {size_t(2), size_t(3), size_t(100), size_t(65536)}) {
    size_t Cut = Inj.shortenWrite(N);
    EXPECT_GE(Cut, 1u) << "short write must keep a non-empty prefix";
    EXPECT_LT(Cut, N) << "short write must be a strict prefix";
  }
  // Too small to clamp: passes through untouched.
  EXPECT_EQ(Inj.shortenWrite(1), 1u);
  EXPECT_EQ(Inj.shortenWrite(0), 0u);
}

TEST(FaultInjector, ZeroRatesNeverFire) {
  FaultSpec S; // all rates zero
  FaultInjector Inj(S, 5);
  for (int I = 0; I != 1000; ++I)
    EXPECT_FALSE(Inj.shouldInject(static_cast<FaultKind>(I % NumFaultKinds)));
  EXPECT_EQ(Inj.totalInjected(), 0u);
  EXPECT_EQ(Inj.decisions(), 1000u);
}

//===----------------------------------------------------------------------===//
// FaultKernel over the simulated kernel
//===----------------------------------------------------------------------===//

TEST(FaultKernel, JitterDelaysSubmittedDeadlines) {
  FaultSpec S;
  S.Rate[static_cast<size_t>(FaultKind::Jitter)] = 1.0;
  S.MaxJitterUs = 50;
  FaultInjector Inj(S, 42);

  Clock C;
  FaultKernel FK(std::make_unique<Kernel>(C), Inj);
  bool Ran = false;
  FK.submit(100, [&] { Ran = true; });
  SimTime DL = FK.nextDeadline();
  EXPECT_GT(DL, 100u) << "jitter must delay the nominal deadline";
  EXPECT_LE(DL, 150u) << "jitter is bounded by MaxJitterUs";
  // The delayed deadline still completes normally.
  ASSERT_TRUE(FK.waitUntil(DL));
  auto Due = FK.takeDue();
  ASSERT_EQ(Due.size(), 1u);
  Due[0]();
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Inj.injected(FaultKind::Jitter), 1u);
}

TEST(FaultKernel, SpuriousWakeReturnsEarlyWithNothingDue) {
  FaultSpec S;
  S.Rate[static_cast<size_t>(FaultKind::Eintr)] = 1.0;
  FaultInjector Inj(S, 42);

  Clock C;
  FaultKernel FK(std::make_unique<Kernel>(C), Inj);
  FK.submit(1000, [] {});
  SimTime DL = FK.nextDeadline();
  ASSERT_EQ(DL, 1000u);
  // The injected spurious wake advances time by one tiny slice only — the
  // loop observes an early return with nothing due, like an interrupted
  // epoll_wait.
  ASSERT_TRUE(FK.waitUntil(DL));
  EXPECT_LT(FK.now(), DL);
  EXPECT_TRUE(FK.takeDue().empty());
  // Re-waiting (what a hardened loop does) eventually reaches the deadline.
  int Spins = 0;
  while (FK.now() < DL && ++Spins < 2000)
    FK.waitUntil(DL);
  EXPECT_EQ(FK.now(), DL);
  EXPECT_EQ(FK.takeDue().size(), 1u);
}

TEST(FaultKernel, ForwardsEverythingElse) {
  FaultSpec S; // no faults enabled: pure pass-through
  FaultInjector Inj(S, 1);
  Clock C;
  FaultKernel FK(std::make_unique<Kernel>(C), Inj);
  OpId Id = FK.submit(10, [] {});
  EXPECT_TRUE(FK.hasPending());
  EXPECT_EQ(FK.pendingCount(), 1u);
  EXPECT_EQ(FK.nextDeadline(), 10u);
  EXPECT_FALSE(FK.isRealTime());
  EXPECT_TRUE(FK.cancel(Id));
  EXPECT_FALSE(FK.hasPending());
  EXPECT_EQ(FK.kernelStats().Syscalls, 0u);
}

//===----------------------------------------------------------------------===//
// Degradation ladder + watchdog
//===----------------------------------------------------------------------===//

/// Counts delivered events; optionally stalls to force ring pressure.
class LadderSink : public instr::AnalysisBase {
public:
  const char *analysisName() const override { return "ladder-sink"; }

  void onFunctionEnter(const instr::FunctionEnterEvent &) override {
    ++Enters;
  }
  void onFunctionExit(const instr::FunctionExitEvent &) override { ++Exits; }
  void onObjectCreate(const instr::ObjectCreateEvent &) override {
    ++Objects;
    if (StallUs.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(
          std::chrono::microseconds(StallUs.load(std::memory_order_relaxed)));
  }

  uint64_t Enters = 0;
  uint64_t Exits = 0;
  uint64_t Objects = 0;
  std::atomic<uint64_t> StallUs{0};
};

TEST(DegradationLadder, EscalatesUnderPressureAndRecoversWhenQuiet) {
  LadderSink Sink;
  Sink.StallUs.store(200); // consumer loses the race

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Degrade;
  Cfg.Drain = ag::DrainMode::Concurrent;
  Cfg.ProducerChunk = 0;       // per-event pushes: pressure is immediate
  Cfg.EscalateSpinNs = 50000;  // escalate fast; the test is about the ladder
  Cfg.RecoverQuietTicks = 4;
  ag::AsyncPipeline P(Sink, Cfg);

  // Flood decorations until the ladder has escalated.
  instr::ObjectCreateEvent Ev;
  instr::TickBoundaryEvent Tick;
  uint64_t Pushed = 0;
  while (P.degradation().Escalations == 0 && Pushed < 2000000) {
    Ev.Obj = ++Pushed;
    P.onObjectCreate(Ev);
  }
  ag::DegradationStats Mid = P.degradation();
  ASSERT_GE(Mid.Escalations, 1u) << "ladder never escalated under pressure";
  EXPECT_GT(Mid.FinalTier, 0u);

  // Pressure off: the consumer drains, quiet tick boundaries walk the
  // ladder back down to lossless.
  Sink.StallUs.store(0);
  for (int I = 0; I != 20000 && P.degradation().FinalTier != 0; ++I) {
    P.onTickBoundary(Tick);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  P.stop();

  ag::DegradationStats D = P.degradation();
  EXPECT_GE(D.Escalations, 1u);
  EXPECT_GE(D.Recoveries, 1u) << "ladder never stepped back down";
  EXPECT_EQ(D.FinalTier, 0u) << "run must end back at lossless";
  EXPECT_GT(D.TimeNs[1] + D.TimeNs[2], 0u)
      << "time must be accounted to the degraded tiers";
}

TEST(DegradationLadder, StructureSurvivesFullShed) {
  LadderSink Sink;
  Sink.StallUs.store(100);

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Degrade;
  Cfg.Drain = ag::DrainMode::Concurrent;
  Cfg.ProducerChunk = 0;
  Cfg.EscalateSpinNs = 20000;
  ag::AsyncPipeline P(Sink, Cfg);

  auto Data = std::make_shared<jsrt::FunctionData>();
  Data->Id = 1;
  Data->Name = "f";
  jsrt::Function F(Data);
  jsrt::CallArgs Args;
  jsrt::DispatchInfo Dispatch;
  jsrt::Completion Result;

  constexpr uint64_t Total = 20000;
  instr::ObjectCreateEvent Ev;
  for (uint64_t I = 0; I != Total; ++I) {
    instr::FunctionEnterEvent Enter{F, Args, Dispatch};
    P.onFunctionEnter(Enter);
    Ev.Obj = I + 1;
    P.onObjectCreate(Ev); // decoration: sheddable
    instr::FunctionExitEvent Exit{F, Result, Dispatch};
    P.onFunctionExit(Exit);
  }
  Sink.StallUs.store(0);
  P.stop();

  // Structure is never shed, whatever the ladder did to decorations.
  EXPECT_EQ(Sink.Enters, Total);
  EXPECT_EQ(Sink.Exits, Total);
  ag::DegradationStats D = P.degradation();
  EXPECT_EQ(Sink.Objects + D.RecordsShed, Total)
      << "every decoration is either delivered or counted as shed";
}

TEST(DegradationLadder, WatchdogCountsBuilderStalls) {
  LadderSink Sink;
  Sink.StallUs.store(200000); // one event pins the builder for 200ms

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1 << 12;
  Cfg.Drain = ag::DrainMode::Concurrent;
  Cfg.WatchdogStallMs = 20;
  ag::AsyncPipeline P(Sink, Cfg);

  // First decoration wedges the builder; keep a backlog queued behind it.
  instr::ObjectCreateEvent Ev;
  for (uint64_t I = 0; I != 64; ++I) {
    Ev.Obj = I + 1;
    P.onObjectCreate(Ev);
  }
  instr::TickBoundaryEvent Tick;
  P.onTickBoundary(Tick); // spill the producer chunk into the ring
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  P.onTickBoundary(Tick); // heartbeat is now stale with a backlog: stall
  Sink.StallUs.store(0);
  P.stop();
  EXPECT_GE(P.degradation().WatchdogStalls, 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end: faults through the runtime stack
//===----------------------------------------------------------------------===//

#ifdef __linux__

/// The wire reactors under an aggressive fault mix, once per real backend:
/// both run the same socket state machine, so both must inject, recover,
/// and account for every request.
class FaultE2EWire : public ::testing::TestWithParam<KernelBackend> {
protected:
  void SetUp() override {
    std::string Why;
    if (!kernelBackendAvailable(GetParam(), &Why))
      GTEST_SKIP() << "backend '" << kernelBackendName(GetParam())
                   << "' unavailable on this host: " << Why;
  }
};

// A 1-loop AcmeAir cluster survives an aggressive fault mix: every request
// is completed or explicitly abandoned, and the recovery paths ran.
TEST_P(FaultE2EWire, AccountsEveryRequest) {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 1;
  Cfg.Backend = GetParam();
  // Per-backend port: ctest runs the instantiations concurrently.
  Cfg.Port = 9391 + static_cast<int>(GetParam());
  Cfg.TotalRequests = 400;
  Cfg.TotalClients = 4;
  Cfg.Mode = ag::PipelineMode::Async;
  Cfg.Policy = ag::BackpressurePolicy::Degrade;
  Cfg.Gossip = false;
  ASSERT_TRUE(
      FaultSpec::parse("eintr:0.05,eagain:0.03,enobufs:0.02,shortwrite:0.1,"
                       "reset:0.005,jitter:0.02",
                       Cfg.Faults, nullptr));
  Cfg.FaultSeed = 11;

  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();

  // Nothing hung or vanished: every request completed or was explicitly
  // abandoned after its retry budget.
  EXPECT_EQ(R.Wire.Completed + R.Wire.Abandoned, Cfg.TotalRequests);
  EXPECT_EQ(R.Wire.Issued, R.Wire.Completed + R.Wire.Abandoned);
  EXPECT_GT(R.Wire.Completed, 0u);
  // Faults actually fired and the hardened paths actually recovered.
  EXPECT_GT(R.FaultsInjected, 0u);
  EXPECT_GT(R.FaultDecisions, R.FaultsInjected);
  ASSERT_EQ(R.Shards.size(), 1u);
  const NetRecoveryStats &Net = R.Shards[0].Net;
  EXPECT_GT(Net.EintrRetries, 0u);
  EXPECT_GT(Net.ShortWrites, 0u);
  EXPECT_GT(Net.EnobufsRetries, 0u);
  EXPECT_NE(R.Shards[0].FaultDigest, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FaultE2EWire,
    ::testing::Values(KernelBackend::Epoll, KernelBackend::Uring),
    [](const ::testing::TestParamInfo<KernelBackend> &Info) {
      return std::string(kernelBackendName(Info.param));
    });

TEST(FaultE2E, SameSeedReproducesIdenticalFaultSchedule) {
  std::string Why;
  if (!kernelBackendAvailable(KernelBackend::Epoll, &Why))
    GTEST_SKIP() << "epoll backend unavailable: " << Why;

  // Two serve-only runs with the same seed process different wall-clock
  // interleavings, so digests may differ — the reproducibility contract is
  // per decision stream, which the sim backend pins exactly: same (spec,
  // seed, workload) → same decisions, same digest.
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 2;
  Cfg.Backend = KernelBackend::Sim;
  Cfg.TotalRequests = 500;
  Cfg.TotalClients = 6;
  // Gossip off: cross-loop message arrival is real thread interleaving
  // even under virtual time, which would perturb when each shard's kernel
  // draws its fault decisions. Without it every shard is single-threaded
  // and its decision stream is exactly (spec, seed, workload).
  Cfg.Gossip = false;
  ASSERT_TRUE(FaultSpec::parse("jitter:0.2,eintr:0.1", Cfg.Faults, nullptr));
  Cfg.FaultSeed = 77;

  cluster::ClusterResult A = cluster::ClusterHarness(Cfg).run();
  cluster::ClusterResult B = cluster::ClusterHarness(Cfg).run();
  ASSERT_EQ(A.Shards.size(), B.Shards.size());
  EXPECT_GT(A.FaultsInjected, 0u);
  for (size_t S = 0; S != A.Shards.size(); ++S) {
    EXPECT_EQ(A.Shards[S].FaultDigest, B.Shards[S].FaultDigest)
        << "shard " << S << " fault schedule diverged across runs";
    EXPECT_EQ(A.Shards[S].FaultDecisions, B.Shards[S].FaultDecisions);
    EXPECT_EQ(A.Shards[S].FaultsInjected, B.Shards[S].FaultsInjected);
  }
  // And the workload outcome itself stays deterministic under faults.
  EXPECT_EQ(A.TotalCompleted, B.TotalCompleted);
  EXPECT_EQ(A.MaxVirtualTimeUs, B.MaxVirtualTimeUs);
}

#endif // __linux__

} // namespace
