//===- AsyncPipeline.cpp - Off-thread Async Graph construction ----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/AsyncPipeline.h"

#include <cassert>
#include <chrono>
#include <cstdio>

using namespace asyncg;
using namespace asyncg::ag;

const char *ag::degradeTierName(DegradeTier T) {
  switch (T) {
  case DegradeTier::Lossless:
    return "lossless";
  case DegradeTier::Sampled:
    return "sampled";
  case DegradeTier::StructuralOnly:
    return "structural";
  }
  return "?";
}

AsyncPipeline::AsyncPipeline(instr::AnalysisBase &Sink, PipelineConfig Config)
    : Sink(Sink), Config(Config), Ring(Config.RingCapacity) {
  assert(Ring.capacity() >= 1024 &&
         "ring too small for the largest event span");
  // A pending chunk plus the largest event span must fit all-or-nothing.
  if (this->Config.ProducerChunk > Ring.capacity() / 2)
    this->Config.ProducerChunk = Ring.capacity() / 2;
  SamplingOn = Config.SampleBudgetPct > 0;
  Start = std::chrono::steady_clock::now();
  Scratch.reserve(this->Config.ProducerChunk ? this->Config.ProducerChunk + 64
                                             : 64);
  Builder = std::thread([this] { consumerMain(); });
}

AsyncPipeline::~AsyncPipeline() { stop(); }

void AsyncPipeline::wakeConsumer() {
  {
    std::lock_guard<std::mutex> Lock(WakeMutex);
    WakeRequested = true;
  }
  WakeCv.notify_one();
}

void AsyncPipeline::pushPending() {
  size_t N = Scratch.size();
  if (N == 0)
    return;
  if (!Ring.tryPushAll(Scratch.data(), N)) {
    // Ring overflow in deferred mode: the builder thread must drain during
    // the run after all.
    if (Config.Drain == DrainMode::Deferred)
      wakeConsumer();
    BlockedPushes.fetch_add(1, std::memory_order_relaxed);
    auto T0 = std::chrono::steady_clock::now();
    if (Config.Policy == BackpressurePolicy::Degrade) {
      N = pushDegraded();
    } else {
      do
        std::this_thread::yield();
      while (!Ring.tryPushAll(Scratch.data(), N));
    }
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
    BlockedTimeNs.fetch_add(static_cast<uint64_t>(Ns),
                            std::memory_order_relaxed);
  }
  // Producer is the only writer of Pushed: plain load + store beats an RMW
  // on the per-event path.
  if (N) {
    uint64_t Total = Pushed.load(std::memory_order_relaxed) + N;
    Pushed.store(Total, std::memory_order_relaxed);
    uint64_t Depth = Total - Consumed.load(std::memory_order_relaxed);
    if (Depth > MaxQueueDepth.load(std::memory_order_relaxed))
      MaxQueueDepth.store(Depth, std::memory_order_relaxed);
  }
  Scratch.clear();
}

size_t AsyncPipeline::pushDegraded() {
  for (;;) {
    // One bounded spin window per tier. A push that fits ends the fight;
    // a window that expires escalates — the loop never blocks until the
    // ladder has already shed everything sheddable.
    auto SpinStart = std::chrono::steady_clock::now();
    do {
      std::this_thread::yield();
      if (Ring.tryPushAll(Scratch.data(), Scratch.size()))
        return Scratch.size();
    } while (std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - SpinStart)
                 .count() < static_cast<int64_t>(Config.EscalateSpinNs));
    if (LadderTier != DegradeTier::StructuralOnly) {
      setTier(static_cast<DegradeTier>(static_cast<uint8_t>(LadderTier) + 1));
      Escalations.fetch_add(1, std::memory_order_relaxed);
      shedPendingDecorations();
      if (Scratch.empty())
        return 0;
      continue;
    }
    // Already structural-only and the ring is still full: structure must
    // not drop (the builder's shadow stack depends on it), so this is the
    // one residual blocking path — entered only after both sheds.
    do
      std::this_thread::yield();
    while (!Ring.tryPushAll(Scratch.data(), Scratch.size()));
    return Scratch.size();
  }
}

void AsyncPipeline::setTier(DegradeTier T) {
  uint64_t NowNs = nsSinceStart();
  uint64_t Since = TierSinceNs.load(std::memory_order_relaxed);
  if (NowNs > Since)
    TierTimeNs[static_cast<size_t>(LadderTier)].fetch_add(
        NowNs - Since, std::memory_order_relaxed);
  TierSinceNs.store(NowNs, std::memory_order_relaxed);
  LadderTier = T;
  TierAtomic.store(static_cast<uint32_t>(T), std::memory_order_relaxed);
  QuietTicks = 0;
}

void AsyncPipeline::shedPendingDecorations() {
  // Droppable opcodes are contiguous (ApiBase..PromiseLink), so filtering
  // by range removes whole decoration record groups and can never strand
  // an ApiExt/ApiFuncs continuation without its ApiBase.
  constexpr uint8_t FirstDecor = static_cast<uint8_t>(trace::TraceOp::ApiBase);
  constexpr uint8_t LastDecor =
      static_cast<uint8_t>(trace::TraceOp::PromiseLink);
  size_t W = 0;
  uint64_t Shed = 0;
  for (const trace::TraceRecord &R : Scratch) {
    if (R.Op >= FirstDecor && R.Op <= LastDecor) {
      ++Shed;
      continue;
    }
    Scratch[W++] = R;
  }
  Scratch.resize(W);
  if (Shed)
    LadderShed.fetch_add(Shed, std::memory_order_relaxed);
}

void AsyncPipeline::pushScratch(bool Structural) {
  if (Config.Policy != BackpressurePolicy::Drop && Config.ProducerChunk) {
    // Chunked producer: let events accumulate in Scratch and spill in one
    // amortized push (ring availability check + two counter updates per
    // chunk instead of per event). Tick boundaries and flush() push the
    // remainder, so nothing is held past one loop turn.
    if (Scratch.size() >= Config.ProducerChunk)
      pushPending();
    return;
  }
  size_t N = Scratch.size();
  if (N == 0)
    return;
  if (!Ring.tryPushAll(Scratch.data(), N)) {
    if (!Structural && Config.Policy == BackpressurePolicy::Drop) {
      DroppedEvents.fetch_add(1, std::memory_order_relaxed);
      // A FuncDef the encoder emitted for the dropped call's callbacks is
      // identity, not decoration: the encoder never repeats it, so it
      // must still reach the builder.
      size_t W = 0;
      for (const trace::TraceRecord &R : Scratch)
        if (R.Op == static_cast<uint8_t>(trace::TraceOp::FuncDef))
          Scratch[W++] = R;
      Scratch.resize(W);
      pushPending();
      return;
    }
    pushPending(); // spins until space frees up
    return;
  }
  uint64_t Total = Pushed.load(std::memory_order_relaxed) + N;
  Pushed.store(Total, std::memory_order_relaxed);
  uint64_t Depth = Total - Consumed.load(std::memory_order_relaxed);
  if (Depth > MaxQueueDepth.load(std::memory_order_relaxed))
    MaxQueueDepth.store(Depth, std::memory_order_relaxed);
  Scratch.clear();
}

void AsyncPipeline::flush() {
  pushPending();
  uint64_t Target = Pushed.load(std::memory_order_relaxed);
  if (Config.Drain == DrainMode::Deferred)
    wakeConsumer();
  while (Consumed.load(std::memory_order_acquire) < Target)
    std::this_thread::yield();
}

void AsyncPipeline::stop() {
  if (!Builder.joinable())
    return;
  flush();
  StopRequested.store(true, std::memory_order_release);
  if (Config.Drain == DrainMode::Deferred)
    wakeConsumer();
  Builder.join();
}

void AsyncPipeline::consumerMain() {
  std::vector<trace::TraceRecord> Buf(Config.DrainBatch ? Config.DrainBatch
                                                        : 1);
  // Recording tee: the drained batches double as the trace artifact, so
  // the loop thread never pays for encoding the file.
  bool Tee = !Config.RecordPath.empty();
  if (Tee && !RecWriter.open(Config.RecordPath)) {
    RecordFailed.store(true, std::memory_order_relaxed);
    Tee = false;
  }
  while (true) {
    // Watchdog heartbeat: one relaxed store per pass (and per batch below)
    // proves the builder is alive and making progress.
    HeartbeatNs.store(nsSinceStart(), std::memory_order_relaxed);
    if (Config.Drain == DrainMode::Deferred) {
      // Park *before* touching the ring: records buffer until flush()/
      // stop() asks for a drain or the producer overflows the ring. The
      // flag persists across a drain pass, so a wake that arrives while
      // we are draining just triggers one more (possibly empty) pass —
      // never a lost request.
      std::unique_lock<std::mutex> Lock(WakeMutex);
      WakeCv.wait(Lock, [this] { return WakeRequested; });
      WakeRequested = false;
    }
    size_t N;
    while ((N = Ring.tryPopBatch(Buf.data(), Buf.size())) > 0) {
      if (Tee) {
        if (RecWriter.append(Buf.data(), N)) {
          RecordedBytes.store(RecWriter.recordBytes(),
                              std::memory_order_relaxed);
        } else {
          RecordFailed.store(true, std::memory_order_relaxed);
          Tee = false;
        }
      }
      Decoder.decode(Buf.data(), N, Sink);
      // Batch boundary on the builder thread: the sink may retire quiesced
      // graph regions here, off the event-loop thread's critical path.
      Sink.onBatchBoundary();
      // Release so flush()'s acquire load sees the sink writes of this
      // batch.
      Consumed.fetch_add(N, std::memory_order_release);
      HeartbeatNs.store(nsSinceStart(), std::memory_order_relaxed);
    }
    if (StopRequested.load(std::memory_order_acquire) && Ring.emptyApprox())
      break;
    if (Config.Drain == DrainMode::Concurrent)
      std::this_thread::yield();
  }
  if (RecWriter.isOpen()) {
    // The producer is parked in stop()'s join, so the global symbol table
    // is quiescent for the symbol-section write.
    if (!RecWriter.finalize())
      RecordFailed.store(true, std::memory_order_relaxed);
    RecordedBytes.store(RecWriter.recordBytes(), std::memory_order_relaxed);
  }
}

void AsyncPipeline::emitEnd(std::chrono::steady_clock::time_point T0) {
  if (!SamplingOn)
    return;
  if (CalibrateLeft) {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
    --CalibrateLeft;
    CalibNs += static_cast<uint64_t>(Ns);
    ++CalibCount;
    EstEmitNs.store(CalibNs / CalibCount, std::memory_order_relaxed);
    EstSpentNs.fetch_add(static_cast<uint64_t>(Ns),
                         std::memory_order_relaxed);
    return;
  }
  // Past calibration: charge the average without touching the clock.
  EstSpentNs.fetch_add(EstEmitNs.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

void AsyncPipeline::onTickBoundary(const instr::TickBoundaryEvent &E) {
  (void)E;
  // Bound chunked-producer latency to one loop turn — but only when the
  // builder is actually consuming live. In Deferred mode it is parked
  // until flush()/stop(), so spilling partial chunks per tick would only
  // defeat the chunk amortization without making the graph any fresher.
  if (Config.Drain == DrainMode::Concurrent &&
      Config.Policy != BackpressurePolicy::Drop && Config.ProducerChunk)
    pushPending();
  // Builder-thread watchdog: a live (Concurrent) builder that has not made
  // progress for WatchdogStallMs while a backlog exists is stalled. One
  // warning per episode; counting continues either way.
  if (Config.WatchdogStallMs && Config.Drain == DrainMode::Concurrent) {
    uint64_t Depth = Pushed.load(std::memory_order_relaxed) -
                     Consumed.load(std::memory_order_relaxed);
    uint64_t NowNs = nsSinceStart();
    uint64_t Hb = HeartbeatNs.load(std::memory_order_relaxed);
    if (Depth > 0 && NowNs > Hb &&
        NowNs - Hb > uint64_t(Config.WatchdogStallMs) * 1000000) {
      if (!InStall) {
        InStall = true;
        WatchdogStalls.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "asyncg: pipeline builder thread stalled for %llums "
                     "with %llu records queued\n",
                     static_cast<unsigned long long>((NowNs - Hb) / 1000000),
                     static_cast<unsigned long long>(Depth));
      }
    } else {
      InStall = false;
    }
  }
  // Degradation-ladder bookkeeping: the per-tick sampling decision for the
  // Sampled tier, and the quiet-ring recovery countdown.
  if (Config.Policy == BackpressurePolicy::Degrade) {
    ++LadderTicks;
    uint32_t Stride =
        Config.LadderSampleStride ? Config.LadderSampleStride : 1;
    LadderSampleTick = (LadderTicks % Stride) == 0;
    if (LadderTier != DegradeTier::Lossless) {
      uint64_t Depth = Pushed.load(std::memory_order_relaxed) -
                       Consumed.load(std::memory_order_relaxed);
      double LowWater =
          static_cast<double>(Ring.capacity()) * Config.RecoverLowWaterPct /
          100.0;
      if (static_cast<double>(Depth) <= LowWater) {
        if (++QuietTicks >= Config.RecoverQuietTicks) {
          setTier(
              static_cast<DegradeTier>(static_cast<uint8_t>(LadderTier) - 1));
          Recoveries.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        QuietTicks = 0;
      }
    }
  }
  if (!SamplingOn)
    return;
  TotalTicks.fetch_add(1, std::memory_order_relaxed);
  if (CalibrateLeft) {
    // Still calibrating the per-event cost: emit everything.
    SampleThisTick = true;
    SampledTicks.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto ElapsedNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  double AllowedNs =
      static_cast<double>(ElapsedNs) * Config.SampleBudgetPct / 100.0;
  SampleThisTick = static_cast<double>(EstSpentNs.load(
                       std::memory_order_relaxed)) <= AllowedNs;
  if (SampleThisTick)
    SampledTicks.fetch_add(1, std::memory_order_relaxed);
}

void AsyncPipeline::onFunctionEnter(const instr::FunctionEnterEvent &E) {
  auto T0 = emitStart();
  Encoder.functionEnter(E, Scratch);
  pushScratch(/*Structural=*/true);
  emitEnd(T0);
}

void AsyncPipeline::onFunctionExit(const instr::FunctionExitEvent &E) {
  auto T0 = emitStart();
  Encoder.functionExit(E, Scratch);
  pushScratch(/*Structural=*/true);
  emitEnd(T0);
}

void AsyncPipeline::onApiCall(const instr::ApiCallEvent &E) {
  if (!decorationGate())
    return;
  auto T0 = emitStart();
  Encoder.apiCall(E, Scratch);
  pushScratch(/*Structural=*/false);
  emitEnd(T0);
}

void AsyncPipeline::onObjectCreate(const instr::ObjectCreateEvent &E) {
  if (!decorationGate())
    return;
  auto T0 = emitStart();
  Encoder.objectCreate(E, Scratch);
  pushScratch(/*Structural=*/false);
  emitEnd(T0);
}

void AsyncPipeline::onReactionResult(const instr::ReactionResultEvent &E) {
  if (!decorationGate())
    return;
  auto T0 = emitStart();
  Encoder.reactionResult(E, Scratch);
  pushScratch(/*Structural=*/false);
  emitEnd(T0);
}

void AsyncPipeline::onPromiseLink(const instr::PromiseLinkEvent &E) {
  if (!decorationGate())
    return;
  auto T0 = emitStart();
  Encoder.promiseLink(E, Scratch);
  pushScratch(/*Structural=*/false);
  emitEnd(T0);
}

void AsyncPipeline::onObjectRelease(const instr::ObjectReleaseEvent &E) {
  auto T0 = emitStart();
  Encoder.objectRelease(E, Scratch);
  // Structural: region-pending accounting depends on every release being
  // observed, so these never drop under BackpressurePolicy::Drop and are
  // never skipped by sampling.
  pushScratch(/*Structural=*/true);
  emitEnd(T0);
}

void AsyncPipeline::onLoopEnd(const instr::LoopEndEvent &E) {
  Encoder.loopEnd(E, Scratch);
  pushScratch(/*Structural=*/true);
  // The loop is over: spill any partial chunk so flush() has nothing left
  // to do on the producer side.
  pushPending();
}
