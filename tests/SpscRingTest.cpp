//===- SpscRingTest.cpp - Lock-free SPSC ring + pipeline backpressure --------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the SPSC ring's single-threaded edges (full/empty, wraparound,
/// all-or-nothing batches) and its cross-thread FIFO contract under a tiny
/// capacity that forces constant wraparound — the test to run under TSan
/// (-DASYNCG_TSAN=ON). Also checks the async pipeline's drop-counter
/// accounting: every event is either delivered or counted as dropped, and
/// structural events are never dropped.
///
//===----------------------------------------------------------------------===//

#include "ag/AsyncPipeline.h"
#include "support/SpscRing.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace asyncg;

namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<uint64_t>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<uint64_t>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<uint64_t>(100).capacity(), 128u);
  EXPECT_EQ(SpscRing<uint64_t>(1024).capacity(), 1024u);
}

TEST(SpscRing, EmptyPopFails) {
  SpscRing<uint64_t> R(8);
  uint64_t V = 0;
  EXPECT_FALSE(R.tryPop(V));
  EXPECT_TRUE(R.emptyApprox());
}

TEST(SpscRing, FullPushFails) {
  SpscRing<uint64_t> R(8);
  for (uint64_t I = 0; I != 8; ++I)
    EXPECT_TRUE(R.tryPush(I));
  EXPECT_FALSE(R.tryPush(99));
  EXPECT_EQ(R.sizeApprox(), 8u);

  uint64_t V = 0;
  EXPECT_TRUE(R.tryPop(V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(R.tryPush(99));
  EXPECT_FALSE(R.tryPush(100));
}

TEST(SpscRing, FifoOrderSingleThread) {
  SpscRing<uint64_t> R(16);
  uint64_t Next = 0;
  // Push/pop far more than the capacity so every slot wraps many times.
  for (int Round = 0; Round != 100; ++Round) {
    for (uint64_t I = 0; I != 11; ++I)
      ASSERT_TRUE(R.tryPush(Round * 11 + I));
    for (uint64_t I = 0; I != 11; ++I) {
      uint64_t V = 0;
      ASSERT_TRUE(R.tryPop(V));
      ASSERT_EQ(V, Next++);
    }
  }
  EXPECT_TRUE(R.emptyApprox());
}

TEST(SpscRing, BatchPushIsAllOrNothing) {
  SpscRing<uint64_t> R(8);
  uint64_t Batch[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(R.tryPushAll(Batch, 5));
  // Only 3 slots free: the next batch of 5 must not partially land.
  EXPECT_FALSE(R.tryPushAll(Batch, 5));
  EXPECT_EQ(R.sizeApprox(), 5u);
  // 3 fits exactly.
  EXPECT_TRUE(R.tryPushAll(Batch, 3));
  EXPECT_EQ(R.sizeApprox(), 8u);

  uint64_t Out[8];
  EXPECT_EQ(R.tryPopBatch(Out, 8), 8u);
  EXPECT_EQ(Out[4], 5u);
  EXPECT_EQ(Out[5], 1u);
}

TEST(SpscRing, PopBatchBounded) {
  SpscRing<uint64_t> R(16);
  for (uint64_t I = 0; I != 10; ++I)
    ASSERT_TRUE(R.tryPush(I));
  uint64_t Out[4];
  EXPECT_EQ(R.tryPopBatch(Out, 4), 4u);
  EXPECT_EQ(Out[0], 0u);
  EXPECT_EQ(Out[3], 3u);
  EXPECT_EQ(R.tryPopBatch(Out, 4), 4u);
  EXPECT_EQ(R.tryPopBatch(Out, 4), 2u);
  EXPECT_EQ(Out[1], 9u);
  EXPECT_EQ(R.tryPopBatch(Out, 4), 0u);
}

/// Cross-thread FIFO: a tiny ring forces constant full/empty transitions
/// and wraparound while both threads run flat out. Run under TSan to check
/// the release/acquire publication of slots.
TEST(SpscRing, ConcurrentFifoStress) {
  constexpr uint64_t Total = 200000;
  SpscRing<uint64_t> R(16);

  std::thread Producer([&R] {
    for (uint64_t I = 0; I != Total; ++I)
      while (!R.tryPush(I))
        std::this_thread::yield();
  });

  uint64_t Expected = 0;
  uint64_t Buf[32];
  while (Expected != Total) {
    size_t N = R.tryPopBatch(Buf, 32);
    if (N == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Buf[I], Expected++);
  }
  Producer.join();
  EXPECT_TRUE(R.emptyApprox());
}

/// Same contract with multi-record batches: batches land contiguously
/// (never torn or interleaved), in order.
TEST(SpscRing, ConcurrentBatchStress) {
  constexpr uint64_t Batches = 50000;
  SpscRing<uint64_t> R(32);

  std::thread Producer([&R] {
    uint64_t Seq = 0;
    for (uint64_t B = 0; B != Batches; ++B) {
      uint64_t Span[5];
      size_t N = 1 + B % 5;
      for (size_t I = 0; I != N; ++I)
        Span[I] = Seq++;
      while (!R.tryPushAll(Span, N))
        std::this_thread::yield();
    }
  });

  uint64_t Total = 0;
  for (uint64_t B = 0; B != Batches; ++B)
    Total += 1 + B % 5;

  uint64_t Expected = 0;
  uint64_t Buf[64];
  while (Expected != Total) {
    size_t N = R.tryPopBatch(Buf, 64);
    if (N == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Buf[I], Expected++);
  }
  Producer.join();
}

//===----------------------------------------------------------------------===//
// Pipeline backpressure accounting
//===----------------------------------------------------------------------===//

/// Counts delivered events; optionally throttles to force ring pressure.
class CountingSink : public instr::AnalysisBase {
public:
  const char *analysisName() const override { return "counting-sink"; }

  void onFunctionEnter(const instr::FunctionEnterEvent &) override {
    ++Enters;
  }
  void onFunctionExit(const instr::FunctionExitEvent &) override { ++Exits; }
  void onObjectCreate(const instr::ObjectCreateEvent &) override {
    ++Objects;
    if (ThrottleEvery && Objects % ThrottleEvery == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  uint64_t Enters = 0;
  uint64_t Exits = 0;
  uint64_t Objects = 0;
  uint64_t ThrottleEvery = 0;
};

TEST(AsyncPipelineBackpressure, DropCounterAccountsForEveryEvent) {
  CountingSink Sink;
  Sink.ThrottleEvery = 64; // make the consumer lose the race

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Drop;
  constexpr uint64_t Total = 20000;
  {
    ag::AsyncPipeline P(Sink, Cfg);
    instr::ObjectCreateEvent Ev;
    Ev.IsPromise = true;
    for (uint64_t I = 0; I != Total; ++I) {
      Ev.Obj = I + 1;
      P.onObjectCreate(Ev);
    }
    P.stop();
    // Every event either reached the sink or was counted as dropped.
    EXPECT_EQ(Sink.Objects + P.droppedEvents(), Total);
  }
}

TEST(AsyncPipelineBackpressure, StructuralEventsNeverDrop) {
  CountingSink Sink;
  Sink.ThrottleEvery = 0;

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Drop;

  auto Data = std::make_shared<jsrt::FunctionData>();
  Data->Id = 1;
  Data->Name = "f";
  jsrt::Function F(Data);
  jsrt::CallArgs Args;
  jsrt::DispatchInfo Dispatch;
  jsrt::Completion Result;

  constexpr uint64_t Total = 50000;
  ag::AsyncPipeline P(Sink, Cfg);
  for (uint64_t I = 0; I != Total; ++I) {
    instr::FunctionEnterEvent Enter{F, Args, Dispatch};
    P.onFunctionEnter(Enter);
    instr::FunctionExitEvent Exit{F, Result, Dispatch};
    P.onFunctionExit(Exit);
  }
  P.stop();
  EXPECT_EQ(Sink.Enters, Total);
  EXPECT_EQ(Sink.Exits, Total);
  EXPECT_EQ(P.droppedEvents(), 0u) << "structural events must block, not drop";
}

/// Records the name of every entered function.
class NameSink : public instr::AnalysisBase {
public:
  void onFunctionEnter(const instr::FunctionEnterEvent &E) override {
    Names.push_back(E.F.name());
  }
  std::vector<std::string> Names;
};

/// A callback's FuncDef goes out with the first API call that passes it.
/// When Drop sheds that call, the FuncDef must still reach the builder:
/// the encoder never repeats it, so the callback's later Enter would
/// otherwise decode to a nameless function.
TEST(AsyncPipelineBackpressure, DroppedCallKeepsFunctionDefinition) {
  NameSink Sink;
  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Drop;
  // The parked builder lets the ring fill deterministically.
  Cfg.Drain = ag::DrainMode::Deferred;
  ag::AsyncPipeline P(Sink, Cfg);

  instr::ObjectCreateEvent Obj;
  for (uint64_t I = 0; I != 1024; ++I) {
    Obj.Obj = I + 1;
    P.onObjectCreate(Obj);
  }
  ASSERT_EQ(P.droppedEvents(), 0u);

  auto Data = std::make_shared<jsrt::FunctionData>();
  Data->Id = 1;
  Data->Name = "handler";
  jsrt::Function F(Data);
  instr::ApiCallEvent Call;
  Call.Api = jsrt::ApiKind::EmitterOn;
  Call.EventName = "evt";
  Call.Callbacks.push_back(F);
  P.onApiCall(Call); // ring full: shed
  EXPECT_EQ(P.droppedEvents(), 1u);

  jsrt::CallArgs Args;
  jsrt::DispatchInfo Dispatch;
  jsrt::Completion Result;
  P.onFunctionEnter(instr::FunctionEnterEvent{F, Args, Dispatch});
  P.onFunctionExit(instr::FunctionExitEvent{F, Result, Dispatch});
  P.stop();
  ASSERT_EQ(Sink.Names.size(), 1u);
  EXPECT_EQ(Sink.Names[0], "handler");
}

/// Deferred drain: the builder thread parks while the ring buffers events;
/// nothing reaches the sink until flush() (given a ring big enough for the
/// whole run), and flush() delivers everything.
TEST(AsyncPipelineDeferred, BuffersUntilFlush) {
  CountingSink Sink;

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1 << 15;
  Cfg.Drain = ag::DrainMode::Deferred;
  constexpr uint64_t Total = 20000;
  ag::AsyncPipeline P(Sink, Cfg);
  instr::ObjectCreateEvent Ev;
  for (uint64_t I = 0; I != Total; ++I) {
    Ev.Obj = I + 1;
    P.onObjectCreate(Ev);
  }
  // The consumer is parked and the ring (32k slots) holds every record.
  EXPECT_EQ(Sink.Objects, 0u);
  EXPECT_EQ(P.consumedRecords(), 0u);
  P.flush();
  EXPECT_EQ(Sink.Objects, Total);
  P.stop();
  EXPECT_EQ(P.pushedRecords(), P.consumedRecords());
}

/// Deferred drain with a ring smaller than the run: overflow wakes the
/// consumer mid-run and the pipeline stays lossless.
TEST(AsyncPipelineDeferred, OverflowWakesConsumerAndStaysLossless) {
  CountingSink Sink;

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Drain = ag::DrainMode::Deferred;
  constexpr uint64_t Total = 50000;
  {
    ag::AsyncPipeline P(Sink, Cfg);
    instr::ObjectCreateEvent Ev;
    for (uint64_t I = 0; I != Total; ++I) {
      Ev.Obj = I + 1;
      P.onObjectCreate(Ev);
    }
    P.stop();
    EXPECT_EQ(Sink.Objects, Total);
    EXPECT_EQ(P.droppedEvents(), 0u);
    EXPECT_EQ(P.pushedRecords(), P.consumedRecords());
  }
}

TEST(AsyncPipelineBackpressure, BlockPolicyIsLossless) {
  CountingSink Sink;
  Sink.ThrottleEvery = 256;

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024;
  Cfg.Policy = ag::BackpressurePolicy::Block;
  constexpr uint64_t Total = 20000;
  ag::AsyncPipeline P(Sink, Cfg);
  instr::ObjectCreateEvent Ev;
  for (uint64_t I = 0; I != Total; ++I) {
    Ev.Obj = I + 1;
    P.onObjectCreate(Ev);
  }
  P.stop();
  EXPECT_EQ(Sink.Objects, Total);
  EXPECT_EQ(P.droppedEvents(), 0u);
  EXPECT_EQ(P.pushedRecords(), P.consumedRecords());
}

} // namespace
