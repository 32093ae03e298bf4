//===- EpollKernelTest.cpp - real-traffic backend matrix tests (Linux) -------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Backend-matrix tests for the real-traffic kernel/network backends: every
/// wire test runs parameterized over {epoll, io_uring}, skipping (loudly,
/// with the probe's reason) any backend the host cannot provide. Covered
/// per backend: kernel-level timing and the cancellation contract, the
/// kernel-syscall cost model, wire edge paths (EAGAIN partial writes, peer
/// reset, backlog overflow, cancellation on teardown, fd release when
/// sockets outlive the runtime), and — the
/// acceptance gate — AcmeAir served over real loopback TCP with the
/// warning set and DOT output matching the simulated kernel on the same
/// scripted workload (which also pins epoll/uring parity by transitivity).
///
/// Each test that binds a port uses its own port number, offset by the
/// backend under test: ctest may run this binary's tests in parallel
/// processes.
///
//===----------------------------------------------------------------------===//

#ifdef __linux__

#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "detect/Detectors.h"
#include "jsrt/Runtime.h"
#include "sim/EpollKernel.h"
#include "sim/RealNetwork.h"
#include "sim/UringKernel.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace asyncg::acmeair;

namespace {

/// Hook that asks the real kernel to stop serving once a predicate holds
/// (checked at tick boundaries, on the loop thread). Passive: adds nothing
/// to the graph, so parity runs stay comparable.
struct StopWhen : instr::AnalysisBase {
  const char *analysisName() const override { return "stop-when"; }
  void onTickBoundary(const instr::TickBoundaryEvent &) override {
    if (RK && Pred && Pred())
      RK->requestStop();
  }
  sim::RealKernel *RK = nullptr;
  std::function<bool()> Pred;
};

/// Returns the runtime's kernel as a RealKernel (test-only downcast; the
/// caller created the runtime with a real backend).
sim::RealKernel &realKernel(Runtime &RT) {
  return static_cast<sim::RealKernel &>(RT.kernel());
}

/// Constructs a standalone kernel of the given real backend, or null when
/// construction failed (callers assert).
std::unique_ptr<sim::RealKernel> makeKernel(sim::KernelBackend B,
                                            sim::Clock &C) {
  std::unique_ptr<sim::RealKernel> K;
  if (B == sim::KernelBackend::Uring)
    K = std::make_unique<sim::UringKernel>(C);
  else
    K = std::make_unique<sim::EpollKernel>(C);
  if (!K->valid())
    return nullptr;
  return K;
}

uint64_t acceptedCount(Runtime &RT) {
  return static_cast<sim::RealNetwork &>(RT.network()).acceptedCount();
}

std::vector<std::string> formatWarnings(const ag::AsyncGraph &G) {
  std::vector<std::string> Out;
  for (const ag::Warning &W : G.warnings()) {
    std::string S(ag::bugCategoryName(W.Category));
    S += ": ";
    S += W.Message.view();
    S += " (";
    S += W.Loc.str();
    S += ")";
    Out.push_back(std::move(S));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The backend matrix. Every TEST_P below runs once per real backend;
/// backends the host cannot provide skip with the capability probe's
/// reason (so CI on hosts without io_uring stays green and says why).
class BackendMatrix : public ::testing::TestWithParam<sim::KernelBackend> {
protected:
  void SetUp() override {
    std::string Why;
    if (!sim::kernelBackendAvailable(GetParam(), &Why))
      GTEST_SKIP() << "backend '" << sim::kernelBackendName(GetParam())
                   << "' unavailable on this host: " << Why;
  }

  /// A test-unique port, offset by the backend so the epoll and uring
  /// instantiations never collide when ctest shards run concurrently.
  int portFor(int Base) const { return Base + static_cast<int>(GetParam()); }
};

std::string backendParamName(
    const ::testing::TestParamInfo<sim::KernelBackend> &Info) {
  return sim::kernelBackendName(Info.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendMatrix,
                         ::testing::Values(sim::KernelBackend::Epoll,
                                           sim::KernelBackend::Uring),
                         backendParamName);

//===----------------------------------------------------------------------===//
// Kernel level
//===----------------------------------------------------------------------===//

TEST(RealKernel, BackendNamesParseAndProbe) {
  EXPECT_TRUE(sim::kernelBackendSupported(sim::KernelBackend::Epoll));
  EXPECT_TRUE(sim::kernelBackendSupported(sim::KernelBackend::Uring));
  sim::KernelBackend B;
  EXPECT_TRUE(sim::parseKernelBackend("epoll", B));
  EXPECT_EQ(B, sim::KernelBackend::Epoll);
  EXPECT_TRUE(sim::parseKernelBackend("uring", B));
  EXPECT_EQ(B, sim::KernelBackend::Uring);
  EXPECT_TRUE(sim::parseKernelBackend("sim", B));
  EXPECT_EQ(B, sim::KernelBackend::Sim);
  EXPECT_FALSE(sim::parseKernelBackend("kqueue", B));

  // The probe always explains itself, and auto always resolves to an
  // available backend (sim at worst).
  std::string Why;
  sim::kernelBackendAvailable(sim::KernelBackend::Uring, &Why);
  EXPECT_FALSE(Why.empty());
  Why.clear();
  sim::KernelBackend Auto = sim::resolveAutoKernelBackend(&Why);
  EXPECT_FALSE(Why.empty());
  EXPECT_TRUE(sim::kernelBackendAvailable(Auto, nullptr));
  // The available-backend list the CLI error paths print always holds sim.
  EXPECT_NE(sim::availableKernelBackendNames().find("sim"),
            std::string::npos);
}

TEST_P(BackendMatrix, TimersFireInWallClockTime) {
  sim::Clock C;
  auto K = makeKernel(GetParam(), C);
  ASSERT_TRUE(K);
  // Deadlines are relative to the shared clock; sync it past the kernel's
  // construction cost (ring setup is ~1 ms on uring) before measuring.
  // The wall-clock reference is taken before the sync: the deadlines count
  // from the synced instant, not from after the submits.
  auto T0 = std::chrono::steady_clock::now();
  K->syncClock();
  std::vector<int> Order;
  K->submit(5000, [&] { Order.push_back(2); }); // 5 ms
  K->submit(1000, [&] { Order.push_back(1); }); // 1 ms
  while (Order.size() < 2) {
    ASSERT_TRUE(K->waitUntil(K->nextDeadline()));
    for (auto &A : K->takeDue())
      A();
  }
  auto ElapsedUs = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_GE(ElapsedUs, 5000); // the 5 ms deadline was a real deadline
  EXPECT_FALSE(K->hasPending());
}

// The cancellation contract (sim/Kernel.h) holds identically on every real
// kernel: an op the kernel still holds — even one already due — cancels
// with a guarantee it never runs; one handed out by takeDue() does not.
TEST_P(BackendMatrix, CancelContractMatchesSimKernel) {
  sim::Clock C;
  auto K = makeKernel(GetParam(), C);
  ASSERT_TRUE(K);
  int Ran = 0;

  sim::OpId Due = K->submit(1000, [&] { ++Ran; });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  K->syncClock(); // Due is now past-deadline but still held by the kernel
  EXPECT_TRUE(K->cancel(Due));
  EXPECT_TRUE(K->takeDue().empty());
  EXPECT_EQ(Ran, 0);

  sim::OpId Taken = K->submit(1000, [&] { ++Ran; });
  ASSERT_TRUE(K->waitUntil(K->nextDeadline()));
  auto Batch = K->takeDue();
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_FALSE(K->cancel(Taken)); // already dispatched to the loop
  EXPECT_EQ(Ran, 0);
  for (auto &A : Batch)
    A();
  EXPECT_EQ(Ran, 1);
}

TEST_P(BackendMatrix, ExternalSubmitWakesBlockedWait) {
  sim::Clock C;
  auto K = makeKernel(GetParam(), C);
  ASSERT_TRUE(K);
  bool Ran = false;
  K->submit(3'000'000, [] {}); // far deadline the wait should not reach
  sim::RealKernel *Raw = K.get();
  std::thread Poster([Raw] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Raw->submitExternal([] {});
  });
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(K->waitUntil(K->nextDeadline()));
  for (auto &A : K->takeDue()) {
    A();
    Ran = true;
  }
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  Poster.join();
  EXPECT_TRUE(Ran);
  EXPECT_LT(ElapsedMs, 2000); // woke for the external op, not the timer
}

// The kernel-syscall cost model: both backends count their OS entries, and
// the uring backend's defining property — batched SQE submission — shows
// up as submitted SQEs where epoll reports none.
TEST_P(BackendMatrix, KernelStatsModelTheBackend) {
  sim::Clock C;
  auto K = makeKernel(GetParam(), C);
  ASSERT_TRUE(K);
  int Ran = 0;
  K->submit(1000, [&] { ++Ran; });
  while (!Ran) {
    ASSERT_TRUE(K->waitUntil(K->nextDeadline()));
    for (auto &A : K->takeDue())
      A();
  }
  sim::KernelStats S = K->kernelStats();
  EXPECT_GT(S.Syscalls, 0u);
  EXPECT_GT(S.Enters, 0u);
  if (GetParam() == sim::KernelBackend::Uring) {
    EXPECT_GT(S.SqesSubmitted, 0u);
    EXPECT_GT(S.SubmitBatches, 0u);
    EXPECT_GE(S.MaxSqeBatch, 1u);
    EXPECT_GT(S.Completions, 0u);
  } else {
    EXPECT_EQ(S.SqesSubmitted, 0u); // epoll has no submission queue
    EXPECT_EQ(S.SubmitBatches, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Wire edge paths
//===----------------------------------------------------------------------===//

/// Runs \p Script under a runtime on \p Backend with the full detector
/// suite attached; returns the sorted warning strings. Used to assert the
/// edge paths leave the graph in the same state on every backend. The
/// script receives the runtime and, on real backends, the kernel (null on
/// sim) so it can request a stop once its work is done.
template <typename ScriptFn>
std::vector<std::string> runScripted(sim::KernelBackend Backend,
                                     ScriptFn Script) {
  RuntimeConfig RC;
  RC.Backend = Backend;
  RC.Wire = sim::WireFormat::Framed;
  Runtime RT(RC);
  sim::RealKernel *RK =
      Backend != sim::KernelBackend::Sim ? &realKernel(RT) : nullptr;
  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  RT.hooks().attach(&Builder);
  Function Main = RT.makeBuiltin("main", [&](Runtime &R, const CallArgs &) {
    Script(R, RK);
    return Completion::normal();
  });
  RT.main(Main);
  EXPECT_TRUE(RT.uncaughtErrors().empty());
  return formatWarnings(Builder.graph());
}

// A 16 MiB message does not fit the loopback socket buffers: the server's
// send hits EAGAIN/partial completions repeatedly and finishes over
// multiple readiness (epoll) or re-staged-send (uring) rounds. The message
// must still arrive as one intact delivery (sim semantics).
TEST_P(BackendMatrix, PartialWritesReassembleLargeMessage) {
  const int Port = portFor(9420);
  const std::string Big(16u << 20, 'x');
  std::string Received;
  std::vector<std::shared_ptr<sim::Socket>> Held;

  // Same script for both backends; RK is null on sim, where the loop
  // drains naturally once the kernel has no pending ops.
  auto Script = [&](Runtime &R, sim::RealKernel *RK) {
    R.network().listen(Port, [&](std::shared_ptr<sim::Socket> S) {
      Held.push_back(S);
      S->write(Big);
      S->end();
    });
    bool Ok = R.network().connect(Port, [&, RK](std::shared_ptr<sim::Socket> S) {
      Held.push_back(S);
      S->onData([&, RK](const std::string &M) {
        Received = M;
        if (RK)
          RK->requestStop();
      });
    });
    EXPECT_TRUE(Ok);
  };

  std::vector<std::string> WireWarnings = runScripted(GetParam(), Script);
  ASSERT_EQ(Received.size(), Big.size());
  EXPECT_TRUE(Received == Big);

  Received.clear();
  Held.clear();
  std::vector<std::string> SimWarnings =
      runScripted(sim::KernelBackend::Sim, Script);
  EXPECT_TRUE(Received == Big);
  EXPECT_EQ(WireWarnings, SimWarnings);
}

/// Open file descriptors of this process.
size_t openFdCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

// The node layer may keep sockets alive past the runtime. Quiet teardown
// must still release every fd, including ones adopted before later
// connections compacted the network's socket registry.
TEST_P(BackendMatrix, RuntimeTeardownReleasesHeldSockets) {
  const int Port = portFor(9470);
  const size_t NConns = 3;
  std::vector<std::shared_ptr<sim::Socket>> Held;
  size_t FdsBefore = openFdCount();
  runScripted(GetParam(), [&](Runtime &R, sim::RealKernel *RK) {
    auto Hold = [&, RK](std::shared_ptr<sim::Socket> S) {
      Held.push_back(S);
      if (Held.size() == 2 * NConns)
        RK->requestStop();
    };
    R.network().listen(Port, Hold);
    for (size_t I = 0; I != NConns; ++I)
      EXPECT_TRUE(R.network().connect(Port, Hold));
  });
  EXPECT_EQ(Held.size(), 2 * NConns);
  EXPECT_EQ(openFdCount(), FdsBefore);
}

// Peer resets (destroy) while the server still owes it data: the server
// side must observe a close event — the sim analogue of destroy — and the
// loop must drain without leaking the graph or erroring.
TEST_P(BackendMatrix, PeerResetDeliversCloseEvent) {
  const int Port = portFor(9430);
  bool ServerClosed = false;
  std::vector<std::shared_ptr<sim::Socket>> Held;

  auto Script = [&](Runtime &R, sim::RealKernel *RK) {
    R.network().listen(Port, [&, RK](std::shared_ptr<sim::Socket> S) {
      Held.push_back(S);
      sim::Socket *Raw = S.get();
      Raw->onClose([&] { ServerClosed = true; });
      Raw->onData([Raw, RK](const std::string &) {
        // By the time this write lands the peer is gone: it is dropped
        // (sim) or fails against the torn-down fd (real) — silently.
        Raw->write("response");
        if (RK)
          RK->requestStop();
      });
    });
    bool Ok = R.network().connect(Port, [](std::shared_ptr<sim::Socket> S) {
      S->write("request");
      S->destroy(); // RST
    });
    EXPECT_TRUE(Ok);
  };

  std::vector<std::string> WireWarnings = runScripted(GetParam(), Script);
  EXPECT_TRUE(ServerClosed);

  ServerClosed = false;
  Held.clear();
  std::vector<std::string> SimWarnings =
      runScripted(sim::KernelBackend::Sim, Script);
  EXPECT_TRUE(ServerClosed);
  EXPECT_EQ(WireWarnings, SimWarnings);
}

// Teardown with reads/accepts still in flight: destroy() must cancel the
// staged kernel ops (epoll: unwatch; uring: ASYNC_CANCEL per the buffer
// ownership rules in DESIGN.md §5h) so the loop drains instead of waiting
// on a connection nobody will ever write to.
TEST_P(BackendMatrix, DestroyCancelsInFlightOps) {
  const int Port = portFor(9440);
  bool ClientGotData = false;

  auto Script = [&](Runtime &R, sim::RealKernel *RK) {
    R.network().listen(Port, [&](std::shared_ptr<sim::Socket> S) {
      // Server never writes; the client's pending recv can only be
      // retired by cancellation.
      (void)S;
    });
    bool Ok = R.network().connect(Port, [&, RK](std::shared_ptr<sim::Socket> S) {
      S->onData([&](const std::string &) { ClientGotData = true; });
      S->destroy(); // tears down with the recv (and accept) staged
      if (RK)
        RK->requestStop();
    });
    EXPECT_TRUE(Ok);
  };

  runScripted(GetParam(), Script);
  EXPECT_FALSE(ClientGotData);
}

// More simultaneous connects than the listen backlog: the kernel drops the
// excess SYNs, the clients retransmit, and every connection is eventually
// accepted and served — no drops surface at the application layer. (On
// uring the accepts arrive through the multishot accept SQE.)
TEST_P(BackendMatrix, BacklogOverflowEventuallyServesAll) {
  const int Port = portFor(9450);
  const int NConns = 8;
  int Echoed = 0;

  RuntimeConfig RC;
  RC.Backend = GetParam();
  RC.Wire = sim::WireFormat::Framed;
  Runtime RT(RC);

  std::vector<std::shared_ptr<sim::Socket>> Held;
  Function Main = RT.makeBuiltin("main", [&](Runtime &R, const CallArgs &) {
    bool Listening = R.network().listenWithBacklog(
        Port,
        [&](std::shared_ptr<sim::Socket> S) {
          Held.push_back(S);
          sim::Socket *Raw = S.get();
          Raw->onData([Raw](const std::string &M) { Raw->write("echo:" + M); });
        },
        /*Backlog=*/1);
    EXPECT_TRUE(Listening);
    for (int I = 0; I != NConns; ++I) {
      bool Ok = R.network().connect(
          Port, [&, I](std::shared_ptr<sim::Socket> S) {
            Held.push_back(S);
            sim::Socket *Raw = S.get();
            Raw->onData([&, I](const std::string &M) {
              EXPECT_EQ(M, "echo:ping" + std::to_string(I));
              if (++Echoed == NConns)
                realKernel(RT).requestStop();
            });
            Raw->write("ping" + std::to_string(I));
          });
      EXPECT_TRUE(Ok);
    }
    return Completion::normal();
  });
  RT.main(Main);

  EXPECT_EQ(Echoed, NConns);
  EXPECT_EQ(acceptedCount(RT), static_cast<uint64_t>(NConns));
  EXPECT_TRUE(RT.uncaughtErrors().empty());
}

//===----------------------------------------------------------------------===//
// AcmeAir over real loopback HTTP: the acceptance gate
//===----------------------------------------------------------------------===//

struct AcmeRun {
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t Served = 0;
  std::vector<std::string> Warnings;
  std::string Dot;
};

AcmeRun runAcmeAir(sim::KernelBackend Backend, int Port, uint64_t Requests) {
  RuntimeConfig RC;
  RC.Backend = Backend;
  Runtime RT(RC);
  AppConfig ACfg;
  ACfg.Port = Port;
  AcmeAirApp App(RT, ACfg);
  WorkloadConfig WCfg;
  WCfg.TotalRequests = Requests;
  // One closed-loop client: the request sequence is strictly sequential,
  // so graph structure is comparable across backends (real concurrency
  // would reorder ticks).
  WCfg.Clients = 1;
  WorkloadDriver Driver(RT, Port, WCfg);

  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  RT.hooks().attach(&Builder);

  StopWhen Stop;
  if (Backend != sim::KernelBackend::Sim) {
    Stop.RK = &realKernel(RT);
    Stop.Pred = [&Driver, Requests] {
      return Driver.completed() >= Requests;
    };
    RT.hooks().attach(&Stop);
  }

  Function Main = RT.makeBuiltin("main", [&](Runtime &R, const CallArgs &) {
    App.start(JSLOC);
    Driver.start();
    (void)R;
    return Completion::normal();
  });
  RT.main(Main);

  AcmeRun Out;
  Out.Completed = Driver.completed();
  Out.Errors = Driver.errors();
  Out.Served = App.served();
  Out.Warnings = formatWarnings(Builder.graph());
  Out.Dot = viz::toDot(Builder.graph());
  EXPECT_TRUE(RT.uncaughtErrors().empty());
  return Out;
}

TEST_P(BackendMatrix, AcmeAirServesWireHttpWithSimParity) {
  const uint64_t Requests = 40;
  const int Port = portFor(9460);
  AcmeRun Wire = runAcmeAir(GetParam(), Port, Requests);
  AcmeRun Sim = runAcmeAir(sim::KernelBackend::Sim, Port, Requests);

  EXPECT_EQ(Wire.Completed, Requests);
  EXPECT_EQ(Wire.Errors, 0u);
  EXPECT_EQ(Wire.Served, Requests);
  EXPECT_EQ(Sim.Completed, Requests);

  // The acceptance gate: same warnings, same graph (DOT carries no
  // timestamps, so equality is already "modulo timestamps"). Both real
  // backends matching sim also pins epoll-vs-uring DOT parity.
  EXPECT_EQ(Wire.Warnings, Sim.Warnings);
  EXPECT_EQ(Wire.Dot, Sim.Dot);
}

//===----------------------------------------------------------------------===//
// SO_REUSEPORT cluster mode
//===----------------------------------------------------------------------===//

TEST_P(BackendMatrix, ReuseportServesAcrossLoops) {
  cluster::ClusterConfig Cfg;
  Cfg.Backend = GetParam();
  Cfg.Port = portFor(9470);
  Cfg.Loops = 2;
  Cfg.TotalClients = 4;
  Cfg.TotalRequests = 60;
  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();

  EXPECT_EQ(R.Wire.Completed, 60u);
  EXPECT_EQ(R.Wire.Errors, 0u);
  EXPECT_EQ(R.Wire.DroppedConns, 0u);
  EXPECT_GT(R.Wire.ReqPerSec, 0);
  uint64_t Served = 0;
  ASSERT_EQ(R.Shards.size(), 2u);
  for (const cluster::ShardResult &S : R.Shards)
    Served += S.Served;
  // The Linux kernel balances accepts across the SO_REUSEPORT group; which
  // shard serves how much is its choice, but nothing may be lost.
  EXPECT_EQ(Served, 60u);
  // Gossip crossed the loops and every delivery was drained.
  uint64_t Sent = 0, Received = 0;
  for (const cluster::ShardResult &S : R.Shards) {
    Sent += S.Sent;
    Received += S.Received;
  }
  EXPECT_GT(Sent, 0u);
  EXPECT_EQ(Sent, Received);
  // The syscall cost model flowed through the shard aggregation.
  EXPECT_GT(R.Sys.Syscalls, 0u);
  EXPECT_GT(R.Sys.Enters, 0u);
  if (GetParam() == sim::KernelBackend::Uring) {
    EXPECT_GT(R.Sys.SqesSubmitted, 0u);
  }
}

} // namespace

#else // !__linux__

#include "sim/Kernel.h"

#include <gtest/gtest.h>

TEST(RealKernel, UnsupportedOnThisPlatform) {
  using asyncg::sim::KernelBackend;
  EXPECT_FALSE(asyncg::sim::kernelBackendSupported(KernelBackend::Epoll));
  EXPECT_FALSE(asyncg::sim::kernelBackendSupported(KernelBackend::Uring));
  // The probe's reason strings and the available-backend list (which the
  // CLI error paths print) must still work here: only sim is on offer.
  std::string Why;
  EXPECT_FALSE(
      asyncg::sim::kernelBackendAvailable(KernelBackend::Uring, &Why));
  EXPECT_FALSE(Why.empty());
  EXPECT_EQ(asyncg::sim::availableKernelBackendNames(), "sim");
  EXPECT_EQ(asyncg::sim::resolveAutoKernelBackend(nullptr),
            KernelBackend::Sim);
}

#endif // __linux__
