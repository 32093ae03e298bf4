//===- Forwarders.h - timing forwarders around the layer APIs ---*- C++ -*-===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing forwarders that sit between two layers and time every call that
/// crosses the boundary, without touching the layers themselves:
///
///  - LoopSideTimer: an instr::AnalysisBase attached to the runtime's hook
///    registry in place of the AsyncPipeline; times the loop thread's time
///    inside the pipeline's hook methods and stamps tick boundaries.
///  - BuilderSideTimer: an instr::AnalysisBase wrapping the AsyncGBuilder
///    (as the pipeline's sink or replayTrace's sink); times each call by
///    event kind and API template, net of the detector time spent inside
///    it, samples builder lag, builder-thread CPU and graph footprint.
///  - ObserverTimer: an ag::GraphObserver wrapping the DetectorSuite or one
///    of its member detectors.
///
/// Every forwarder overrides every virtual of its base class so that no
/// event is lost on the way through; the parity self-test checks this by
/// comparing DOT output with and without the forwarders.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FORWARDERS_H
#define PERFBENCH_FORWARDERS_H

#include "Measure.h"

#include "ag/Builder.h"
#include "ag/Observer.h"
#include "ag/Templates.h"
#include "instr/Hooks.h"

#include <atomic>
#include <memory>

namespace perfbench {

using namespace asyncg;

/// Event kinds the builder-side forwarder splits apply time by.
enum EventKind : unsigned {
  KEnter,
  KExit,
  KApi,
  KObjectCreate,
  KReaction,
  KPromiseLink,
  KRelease,
  /// Loop-level boundaries: loop end, batch boundaries (retirement scans)
  /// and tick boundaries.
  KTick,
  /// Property accesses and uncaught errors.
  KOther,
  NumEventKinds
};

extern const char *const EventKindNames[NumEventKinds];

/// API calls split by getAsyncTemplate.
enum ApiClass : unsigned { ARegistration, ATrigger, ACombinator, AMisc, NumApiClasses };

extern const char *const ApiClassNames[NumApiClasses];

inline ApiClass apiClassOf(jsrt::ApiKind Api) {
  switch (ag::getAsyncTemplate(Api).Kind) {
  case ag::TemplateKind::Registration:
    return ARegistration;
  case ag::TemplateKind::Trigger:
    return ATrigger;
  case ag::TemplateKind::Combinator:
    return ACombinator;
  case ag::TemplateKind::Misc:
    return AMisc;
  }
  return AMisc;
}

/// Tick boundaries seen on the loop thread, handed to the builder thread
/// so it can time how far behind the loop it applies the same tick. A
/// single-producer single-consumer ring of (tick sequence, time) pairs.
class TickBoard {
public:
  static constexpr size_t Capacity = 1 << 16;

  TickBoard() : Slots(new Slot[Capacity]) {}

  /// Loop thread: a turn boundary after dispatch \p Seq. Repeated
  /// boundaries with no dispatch in between (idle turns) move the stamp
  /// forward, so idle waiting is not counted as lag.
  void stamp(uint64_t Seq) {
    uint64_t Now = nowNs();
    uint64_t H = Head.load(std::memory_order_relaxed);
    if (H != 0 && Seq == LastSeq) {
      Slots[(H - 1) & (Capacity - 1)].Ns.store(Now, std::memory_order_relaxed);
      return;
    }
    LastSeq = Seq;
    Slot &S = Slots[H & (Capacity - 1)];
    S.Seq.store(Seq, std::memory_order_relaxed);
    S.Ns.store(Now, std::memory_order_relaxed);
    Head.store(H + 1, std::memory_order_release);
  }

  /// Builder thread: dispatch \p Seq is being applied, so every boundary
  /// stamped before it has been reached. Adds one lag sample per boundary.
  void reached(uint64_t Seq, LogHistogram &Lag) {
    uint64_t H = Head.load(std::memory_order_acquire);
    if (H - Tail > Capacity)
      Tail = H - Capacity;
    uint64_t Now = nowNs();
    while (Tail < H) {
      Slot &S = Slots[Tail & (Capacity - 1)];
      if (S.Seq.load(std::memory_order_relaxed) >= Seq)
        break;
      uint64_t At = S.Ns.load(std::memory_order_relaxed);
      Lag.add(Now > At ? Now - At : 0);
      ++Tail;
    }
  }

private:
  struct Slot {
    std::atomic<uint64_t> Seq{0};
    std::atomic<uint64_t> Ns{0};
  };
  std::unique_ptr<Slot[]> Slots;
  std::atomic<uint64_t> Head{0};
  uint64_t LastSeq = 0;
  uint64_t Tail = 0;
};

/// Scoped wall-clock timer adding its lifetime, net of one clock read, to
/// a counter.
class Span {
public:
  explicit Span(uint64_t &Acc) : Acc(Acc), T0(nowNs()) {}
  ~Span() {
    uint64_t D = nowNs() - T0;
    Acc += D > clockReadNs() ? D - clockReadNs() : 0;
  }

private:
  uint64_t &Acc;
  uint64_t T0;
};

/// Loop-side forwarder around the AsyncPipeline.
class LoopSideTimer final : public instr::AnalysisBase {
public:
  LoopSideTimer(instr::AnalysisBase &Inner, TickBoard *Board)
      : Inner(Inner), Board(Board) {}

  const char *analysisName() const override { return Inner.analysisName(); }

  void onFunctionEnter(const instr::FunctionEnterEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onFunctionEnter(E);
  }
  void onFunctionExit(const instr::FunctionExitEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onFunctionExit(E);
  }
  void onApiCall(const instr::ApiCallEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onApiCall(E);
  }
  void onObjectCreate(const instr::ObjectCreateEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onObjectCreate(E);
  }
  void onReactionResult(const instr::ReactionResultEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onReactionResult(E);
  }
  void onPromiseLink(const instr::PromiseLinkEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onPromiseLink(E);
  }
  void onObjectRelease(const instr::ObjectReleaseEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onObjectRelease(E);
  }
  void onPropertyAccess(const instr::PropertyAccessEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onPropertyAccess(E);
  }
  void onUncaughtError(const instr::UncaughtErrorEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onUncaughtError(E);
  }
  void onLoopEnd(const instr::LoopEndEvent &E) override {
    ++Events;
    Span S(InnerNs);
    Inner.onLoopEnd(E);
  }
  void onTickBoundary(const instr::TickBoundaryEvent &E) override {
    ++TickBoundaries;
    if (Board)
      Board->stamp(E.TickSeq);
    Span S(InnerNs);
    Inner.onTickBoundary(E);
  }
  void onBatchBoundary() override {
    Span S(InnerNs);
    Inner.onBatchBoundary();
  }

  /// Loop-thread time inside the wrapped analysis.
  uint64_t InnerNs = 0;
  /// Hook events (tick boundaries excluded).
  uint64_t Events = 0;
  uint64_t TickBoundaries = 0;

private:
  instr::AnalysisBase &Inner;
  TickBoard *Board;
};

/// Detector time accumulated on the builder thread, so the builder-side
/// forwarder can report builder self time.
struct DetectorClock {
  /// Raw span time and span count (the builder nets out the clock reads).
  uint64_t Ns = 0;
  uint64_t Spans = 0;
};

/// GraphObserver forwarder around the DetectorSuite or a single detector.
class ObserverTimer final : public ag::GraphObserver {
public:
  ObserverTimer(ag::GraphObserver &Inner, DetectorClock *Clock)
      : Inner(Inner), Clock(Clock) {}

  const char *observerName() const override { return Inner.observerName(); }

  void onTickStart(ag::AsyncGBuilder &B, const ag::AgTick &T) override {
    Timed S(*this);
    Inner.onTickStart(B, T);
  }
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override {
    Timed S(*this);
    Inner.onNodeAdded(B, N);
  }
  void onEdgeAdded(ag::AsyncGBuilder &B, const ag::AgEdge &E) override {
    Timed S(*this);
    Inner.onEdgeAdded(B, E);
  }
  void onApiEvent(ag::AsyncGBuilder &B, const instr::ApiCallEvent &E) override {
    Timed S(*this);
    Inner.onApiEvent(B, E);
  }
  void onRegistrationRemoved(ag::AsyncGBuilder &B, ag::NodeId Cr) override {
    Timed S(*this);
    Inner.onRegistrationRemoved(B, Cr);
  }
  void onRegistrationReleased(ag::AsyncGBuilder &B, ag::NodeId Cr) override {
    Timed S(*this);
    Inner.onRegistrationReleased(B, Cr);
  }
  void onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob, jsrt::ObjectId Obj,
                        bool IsPromise) override {
    Timed S(*this);
    Inner.onObjectReleased(B, Ob, Obj, IsPromise);
  }
  void onRegionRetire(ag::AsyncGBuilder &B, uint32_t TickIndex) override {
    ++RegionsRetired;
    Timed S(*this);
    Inner.onRegionRetire(B, TickIndex);
  }
  void onEnd(ag::AsyncGBuilder &B) override {
    uint64_t Before = Ns;
    {
      Timed S(*this);
      Inner.onEnd(B);
    }
    EndNs += Ns - Before;
  }

  uint64_t Ns = 0;
  uint64_t Calls = 0;
  uint64_t EndNs = 0;
  uint64_t RegionsRetired = 0;

private:
  /// Times one forwarded callback into Ns and the shared detector clock.
  class Timed {
  public:
    explicit Timed(ObserverTimer &O) : O(O), T0(nowNs()) {}
    ~Timed() {
      uint64_t D = nowNs() - T0;
      O.Ns += D > clockReadNs() ? D - clockReadNs() : 0;
      ++O.Calls;
      if (O.Clock) {
        O.Clock->Ns += D;
        ++O.Clock->Spans;
      }
    }

  private:
    ObserverTimer &O;
    uint64_t T0;
  };

  ag::GraphObserver &Inner;
  DetectorClock *Clock;
};

/// Builder-side forwarder around the AsyncGBuilder.
class BuilderSideTimer final : public instr::AnalysisBase {
public:
  BuilderSideTimer(ag::AsyncGBuilder &Inner, DetectorClock *Clock,
                   TickBoard *Board)
      : Inner(Inner), Clock(Clock), Board(Board) {}

  const char *analysisName() const override { return Inner.analysisName(); }

  void onFunctionEnter(const instr::FunctionEnterEvent &E) override {
    if (Board && E.Dispatch.TopLevel)
      Board->reached(E.Dispatch.TickSeq, Lag);
    Timed S(*this, KEnter);
    Inner.onFunctionEnter(E);
  }
  void onFunctionExit(const instr::FunctionExitEvent &E) override {
    Timed S(*this, KExit);
    Inner.onFunctionExit(E);
  }
  void onApiCall(const instr::ApiCallEvent &E) override {
    ApiClass C = apiClassOf(E.Api);
    uint64_t Before = SelfNs[KApi];
    {
      Timed S(*this, KApi);
      Inner.onApiCall(E);
    }
    ApiNs[C] += SelfNs[KApi] - Before;
    ++ApiCount[C];
  }
  void onObjectCreate(const instr::ObjectCreateEvent &E) override {
    Timed S(*this, KObjectCreate);
    Inner.onObjectCreate(E);
  }
  void onReactionResult(const instr::ReactionResultEvent &E) override {
    Timed S(*this, KReaction);
    Inner.onReactionResult(E);
  }
  void onPromiseLink(const instr::PromiseLinkEvent &E) override {
    Timed S(*this, KPromiseLink);
    Inner.onPromiseLink(E);
  }
  void onObjectRelease(const instr::ObjectReleaseEvent &E) override {
    Timed S(*this, KRelease);
    Inner.onObjectRelease(E);
  }
  void onPropertyAccess(const instr::PropertyAccessEvent &E) override {
    Timed S(*this, KOther);
    Inner.onPropertyAccess(E);
  }
  void onUncaughtError(const instr::UncaughtErrorEvent &E) override {
    Timed S(*this, KOther);
    Inner.onUncaughtError(E);
  }
  void onLoopEnd(const instr::LoopEndEvent &E) override {
    {
      Timed S(*this, KTick);
      Inner.onLoopEnd(E);
    }
    sampleFootprint();
  }
  void onTickBoundary(const instr::TickBoundaryEvent &E) override {
    Timed S(*this, KTick);
    Inner.onTickBoundary(E);
  }
  void onBatchBoundary() override {
    {
      Timed S(*this, KTick);
      Inner.onBatchBoundary();
    }
    CpuLastNs = threadCpuNs();
    WallLastNs = nowNs();
    if ((++Batches & 63) == 0)
      sampleFootprint();
  }

  void sampleFootprint() {
    size_t F = Inner.memoryFootprint();
    if (F > FootprintPeak)
      FootprintPeak = F;
  }

  /// Events applied (batch and tick boundaries excluded).
  uint64_t events() const {
    uint64_t N = 0;
    for (unsigned K = 0; K != NumEventKinds; ++K)
      if (K != KTick)
        N += Count[K];
    return N;
  }
  uint64_t selfNs() const {
    uint64_t N = 0;
    for (unsigned K = 0; K != NumEventKinds; ++K)
      N += SelfNs[K];
    return N;
  }

  /// Self time (net of detectors) and call count per event kind.
  uint64_t SelfNs[NumEventKinds] = {};
  uint64_t Count[NumEventKinds] = {};
  uint64_t ApiNs[NumApiClasses] = {};
  uint64_t ApiCount[NumApiClasses] = {};
  /// Time inside the wrapped builder, detectors included.
  uint64_t SinkNs = 0;
  /// Builder-thread CPU and wall clock at the first call and at the last
  /// batch boundary.
  uint64_t CpuFirstNs = 0, CpuLastNs = 0;
  uint64_t WallFirstNs = 0, WallLastNs = 0;
  uint64_t Batches = 0;
  size_t FootprintPeak = 0;
  LogHistogram Lag;

private:
  class Timed {
  public:
    Timed(BuilderSideTimer &B, EventKind K) : B(B), K(K) {
      if (B.WallFirstNs == 0) {
        B.WallFirstNs = nowNs();
        B.CpuFirstNs = threadCpuNs();
      }
      D0 = B.Clock ? B.Clock->Ns : 0;
      S0 = B.Clock ? B.Clock->Spans : 0;
      T0 = nowNs();
    }
    ~Timed() {
      uint64_t Total = nowNs() - T0;
      // Net of the detectors' spans and of every clock read inside ours.
      uint64_t Det = B.Clock ? B.Clock->Ns - D0 : 0;
      uint64_t Spans = B.Clock ? B.Clock->Spans - S0 : 0;
      uint64_t Off = Det + (1 + Spans) * clockReadNs();
      B.SinkNs += Total;
      B.SelfNs[K] += Total > Off ? Total - Off : 0;
      ++B.Count[K];
    }

  private:
    BuilderSideTimer &B;
    EventKind K;
    uint64_t D0;
    uint64_t S0;
    uint64_t T0;
  };

  ag::AsyncGBuilder &Inner;
  DetectorClock *Clock;
  TickBoard *Board;
};

} // namespace perfbench

#endif // PERFBENCH_FORWARDERS_H
