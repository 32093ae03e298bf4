//===- AsyncPipeline.h - Off-thread Async Graph construction ----*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Moves Async Graph construction off the event-loop thread. The pipeline
/// attaches to the hook registry like any analysis, but instead of building
/// the graph inline it encodes each event into fixed-size trace records
/// (instr/TraceCodec.h) and pushes them through a lock-free SPSC ring
/// (support/SpscRing.h); a dedicated builder thread drains the ring in
/// batches and drives the wrapped sink — normally an ag::AsyncGBuilder with
/// its detectors attached as graph observers.
///
/// What the loop thread pays per event is therefore just the encode (a few
/// stores into a scratch vector, no allocation in steady state) plus one
/// release store; graph nodes, label interning, FlatMap probes, and
/// detector work all happen on the builder thread.
///
/// Backpressure when the ring is full is selectable:
///  - Block (default): spin-yield until space frees up. Lossless.
///  - Drop: discard the event and bump droppedEvents(). Only *decoration*
///    events (API calls, object creation, reaction results, promise links)
///    are droppable; structural records — function enter/exit and loop end,
///    which keep the builder's shadow stack balanced — always block.
///
/// flush() is the completion barrier: it returns once every record pushed
/// so far has been decoded, so the graph is complete and safe to read
/// (call it after the loop finishes, before inspecting the graph). stop()
/// flushes and joins the builder thread; the destructor stops implicitly.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_ASYNCPIPELINE_H
#define ASYNCG_AG_ASYNCPIPELINE_H

#include "instr/TraceCodec.h"
#include "support/SpscRing.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace asyncg {
namespace ag {

/// How graph construction is driven; tools and benches switch on this.
enum class PipelineMode {
  /// Builder attached directly to the hooks (the pre-pipeline behavior).
  Synchronous,
  /// Builder driven from the ring-draining thread via AsyncPipeline.
  Async,
};

/// What the producer does when the ring is full.
enum class BackpressurePolicy {
  Block,   ///< Spin-yield until space frees up (lossless).
  Drop,    ///< Discard decoration events, counting them.
  Degrade, ///< Escalate the degradation ladder instead of blocking.
};

/// The graceful-degradation ladder (BackpressurePolicy::Degrade). Under
/// sustained ring backpressure the producer escalates one tier instead of
/// blocking the event loop; once the ring drains back below the low-water
/// mark for long enough it steps back down. The contract at every tier:
/// structure (function enter/exit, object release, loop end) is never shed
/// — only decorations — so the graph skeleton stays exact and warnings are
/// missed, never fabricated.
enum class DegradeTier : uint8_t {
  Lossless = 0,       ///< Everything emitted.
  Sampled = 1,        ///< Decorations on 1 of LadderSampleStride ticks.
  StructuralOnly = 2, ///< No decorations at all.
};

constexpr size_t NumDegradeTiers = 3;

/// Stable lowercase tier name ("lossless", "sampled", "structural").
const char *degradeTierName(DegradeTier T);

/// Ladder accounting, reported in every BenchReport so a run that shed
/// coverage says so. TimeNs accumulates for every pipeline (a run that
/// never degrades reports its whole lifetime under Lossless).
struct DegradationStats {
  /// Wall time spent in each tier, indexed by DegradeTier.
  uint64_t TimeNs[NumDegradeTiers] = {};
  /// Decoration records shed by the ladder (gate skips count the event,
  /// stuck-chunk filtering counts raw records).
  uint64_t RecordsShed = 0;
  uint64_t Escalations = 0;
  uint64_t Recoveries = 0;
  /// Tier at snapshot time (DegradeTier; the acceptance gate checks the
  /// run ends back at Lossless).
  uint32_t FinalTier = 0;
  /// Builder-thread stall episodes the watchdog observed.
  uint64_t WatchdogStalls = 0;

  void merge(const DegradationStats &O) {
    for (size_t I = 0; I != NumDegradeTiers; ++I)
      TimeNs[I] += O.TimeNs[I];
    RecordsShed += O.RecordsShed;
    Escalations += O.Escalations;
    Recoveries += O.Recoveries;
    FinalTier = FinalTier > O.FinalTier ? FinalTier : O.FinalTier;
    WatchdogStalls += O.WatchdogStalls;
  }
};

/// When the builder thread consumes the ring.
enum class DrainMode {
  /// Decode continuously as records arrive. Lowest graph latency; right
  /// when a spare core is available to absorb the builder work.
  Concurrent,
  /// Park the builder thread and buffer records in the ring during the
  /// run; decode at flush()/stop() (or when the ring fills). Keeps the
  /// loop thread's serving window free of builder CPU contention — the
  /// in-memory analogue of recording a trace and replaying it afterwards,
  /// right on single-core/saturated machines. Size RingCapacity for the
  /// expected record volume; overflow degrades gracefully into draining
  /// during the run (Block) or dropping decorations (Drop).
  Deferred,
};

/// Producer-side backpressure counters: how hard the loop thread had to
/// fight for ring space. All zeros when the ring was sized right.
struct BackpressureStats {
  /// Pushes that found the ring full and had to spin (Block) at least once.
  uint64_t BlockedPushes = 0;
  /// Total producer wall time spent spinning on a full ring.
  uint64_t BlockedTimeNs = 0;
  /// Decoration events discarded under BackpressurePolicy::Drop.
  uint64_t DroppedEvents = 0;
  /// Deepest pushed-minus-consumed backlog observed at push time.
  uint64_t MaxQueueDepth = 0;
};

/// Coverage counters for the overhead-budgeted sampling mode
/// (PipelineConfig::SampleBudgetPct). Like BackpressureStats these travel
/// alongside the graph so detectors and reports can state degraded
/// confidence: on unsampled ticks the pipeline emits only structural
/// events (enter/exit/release/loop-end — the graph skeleton stays exact),
/// while decoration events (API calls, object creation, reaction results,
/// promise links) are skipped and counted here. Linearizability and
/// lifetime warnings that hinge on decorations may therefore be missed —
/// never fabricated — on unsampled ticks.
struct SamplingStats {
  /// Configured budget (percent of loop wall time; 0 = sampling off).
  double BudgetPct = 0;
  /// Loop turns observed / turns on which decorations were emitted.
  uint64_t TotalTicks = 0;
  uint64_t SampledTicks = 0;
  /// Decoration events skipped on unsampled ticks (the dropped coverage).
  uint64_t DroppedEvents = 0;
  /// Calibrated per-event emit cost and the estimated total emit time the
  /// budget decisions were based on.
  uint64_t EstEmitNs = 0;
  uint64_t EstSpentNs = 0;

  bool enabled() const { return BudgetPct > 0; }
  /// Fraction of ticks with full decoration coverage (1 when lossless).
  double tickCoverage() const {
    return TotalTicks ? static_cast<double>(SampledTicks) / TotalTicks : 1.0;
  }
};

struct PipelineConfig {
  /// Ring capacity in records (rounded up to a power of two). Must be at
  /// least large enough for the largest single event span.
  size_t RingCapacity = 1 << 16;
  /// Max records the builder thread decodes per drain.
  size_t DrainBatch = 256;
  BackpressurePolicy Policy = BackpressurePolicy::Block;
  DrainMode Drain = DrainMode::Concurrent;
  /// Records the producer accumulates before one amortized ring push
  /// (Block policy only; Drop keeps per-event pushes so a full ring can
  /// shed exactly one decoration event). Pending records are flushed at
  /// every tick boundary and at flush(), so builder latency is bounded by
  /// one loop turn. 0 pushes per event.
  size_t ProducerChunk = 256;
  /// Overhead budget for adaptive sampling: the percentage of loop wall
  /// time the producer may spend emitting (0 = off, lossless). The
  /// pipeline calibrates the per-event emit cost on its first events,
  /// then decides once per tick boundary whether the estimated spend is
  /// under budget; over-budget ticks emit structural events only and
  /// count skipped decorations in SamplingStats.
  double SampleBudgetPct = 0;
  /// \name Degradation ladder + watchdog (BackpressurePolicy::Degrade)
  /// @{
  /// How long a full-ring push spins before escalating one tier. Small by
  /// design: the whole point of the ladder is not to block the loop.
  uint64_t EscalateSpinNs = 100 * 1000;
  /// Sampled tier: decorations are emitted on 1 of this many ticks.
  uint32_t LadderSampleStride = 4;
  /// Recovery low-water mark: the ring backlog must stay under this
  /// percentage of capacity...
  double RecoverLowWaterPct = 25.0;
  /// ...for this many consecutive tick boundaries before stepping down.
  uint32_t RecoverQuietTicks = 16;
  /// Builder-thread watchdog: warn (once per episode) when the builder
  /// heartbeat is older than this while the ring has a backlog. 0 = off.
  /// Concurrent drain only — a Deferred builder is parked by design.
  uint32_t WatchdogStallMs = 0;
  /// @}
  /// When non-empty, the builder thread tees every record it drains into
  /// this .agtrace file while decoding it into the sink, producing a
  /// replayable artifact at zero cost to the loop thread (the ring hand-
  /// off already paid for the records; the symbol section comes from the
  /// process-global table at finalize). The file is finalized at stop().
  std::string RecordPath;
};

/// The asynchronous instrumentation pipeline. Attach to a HookRegistry on
/// the loop thread; \p Sink runs exclusively on the internal builder
/// thread until stop().
class AsyncPipeline final : public instr::AnalysisBase {
public:
  /// Starts the builder thread. \p Sink (typically an AsyncGBuilder) must
  /// outlive the pipeline and must not be touched by other threads until
  /// flush()/stop() establishes a barrier.
  explicit AsyncPipeline(instr::AnalysisBase &Sink,
                         PipelineConfig Config = PipelineConfig());
  ~AsyncPipeline() override;

  const char *analysisName() const override { return "async-pipeline"; }

  /// Producer-side barrier: returns once everything pushed so far has been
  /// decoded into the sink. Call from the producer thread.
  void flush();

  /// flush() + join the builder thread. Idempotent; after stop() the sink
  /// is safe to use from any thread again.
  void stop();

  /// \name Counters (records are ring slots; events are hook firings)
  /// @{
  uint64_t pushedRecords() const {
    return Pushed.load(std::memory_order_relaxed);
  }
  uint64_t consumedRecords() const {
    return Consumed.load(std::memory_order_relaxed);
  }
  /// Decoration events discarded under BackpressurePolicy::Drop.
  uint64_t droppedEvents() const {
    return DroppedEvents.load(std::memory_order_relaxed);
  }

  /// Snapshot of the producer's backpressure counters (exact after
  /// flush()/stop(); racy-but-monotone while the loop is running).
  BackpressureStats backpressure() const {
    BackpressureStats S;
    S.BlockedPushes = BlockedPushes.load(std::memory_order_relaxed);
    S.BlockedTimeNs = BlockedTimeNs.load(std::memory_order_relaxed);
    S.DroppedEvents = DroppedEvents.load(std::memory_order_relaxed);
    S.MaxQueueDepth = MaxQueueDepth.load(std::memory_order_relaxed);
    return S;
  }

  /// Bytes of the record section written to Config.RecordPath so far
  /// (exact after stop(); racy-but-monotone mid-run). 0 when the tee is
  /// off or nothing has been drained yet.
  uint64_t recordedBytes() const {
    return RecordedBytes.load(std::memory_order_relaxed);
  }
  /// True when the tee could not open or write RecordPath. The pipeline
  /// keeps building the graph; only the artifact is lost.
  bool recordingFailed() const {
    return RecordFailed.load(std::memory_order_relaxed);
  }

  /// Snapshot of the ladder/watchdog counters (exact after flush()/stop();
  /// racy-but-monotone mid-run). Meaningful for every policy: a pipeline
  /// that never degrades reports its whole lifetime under Lossless.
  DegradationStats degradation() const {
    DegradationStats D;
    for (size_t I = 0; I != NumDegradeTiers; ++I)
      D.TimeNs[I] = TierTimeNs[I].load(std::memory_order_relaxed);
    uint32_t T = TierAtomic.load(std::memory_order_relaxed);
    uint64_t NowNs = nsSinceStart();
    uint64_t Since = TierSinceNs.load(std::memory_order_relaxed);
    if (NowNs > Since)
      D.TimeNs[T] += NowNs - Since;
    D.RecordsShed = LadderShed.load(std::memory_order_relaxed);
    D.Escalations = Escalations.load(std::memory_order_relaxed);
    D.Recoveries = Recoveries.load(std::memory_order_relaxed);
    D.FinalTier = T;
    D.WatchdogStalls = WatchdogStalls.load(std::memory_order_relaxed);
    return D;
  }

  /// Snapshot of the sampling coverage counters (exact after flush()/
  /// stop()). All zeros except BudgetPct when sampling never kicked in.
  SamplingStats sampling() const {
    SamplingStats S;
    S.BudgetPct = Config.SampleBudgetPct;
    S.TotalTicks = TotalTicks.load(std::memory_order_relaxed);
    S.SampledTicks = SampledTicks.load(std::memory_order_relaxed);
    S.DroppedEvents = SamplingDropped.load(std::memory_order_relaxed);
    S.EstEmitNs = EstEmitNs.load(std::memory_order_relaxed);
    S.EstSpentNs = EstSpentNs.load(std::memory_order_relaxed);
    return S;
  }
  /// @}

  /// \name AnalysisBase hooks (producer side)
  /// @{
  void onFunctionEnter(const instr::FunctionEnterEvent &E) override;
  void onFunctionExit(const instr::FunctionExitEvent &E) override;
  void onApiCall(const instr::ApiCallEvent &E) override;
  void onObjectCreate(const instr::ObjectCreateEvent &E) override;
  void onReactionResult(const instr::ReactionResultEvent &E) override;
  void onPromiseLink(const instr::PromiseLinkEvent &E) override;
  void onObjectRelease(const instr::ObjectReleaseEvent &E) override;
  void onLoopEnd(const instr::LoopEndEvent &E) override;
  void onTickBoundary(const instr::TickBoundaryEvent &E) override;
  /// @}

private:
  /// Emit-cost calibration window for the sampling mode: the first this
  /// many emitted events are individually timed, after which the running
  /// average is charged per event with no clock reads on the hot path.
  static constexpr unsigned CalibrateEvents = 2048;

  /// Pushes Scratch into the ring all-or-nothing. Structural events ignore
  /// the Drop policy (the shadow stack must stay balanced). Under the
  /// Block policy with ProducerChunk set, records accumulate in Scratch
  /// across events and only spill once the chunk fills.
  void pushScratch(bool Structural);

  /// Pushes whatever Scratch holds right now (chunk spill / tick boundary
  /// / flush). Producer thread only.
  void pushPending();

  /// Degrade policy: bounded-spin push of Scratch, escalating the ladder
  /// and shedding pending decorations when the ring stays full. Returns
  /// the number of records actually pushed (< Scratch.size() after sheds).
  size_t pushDegraded();

  /// Nanoseconds since pipeline start (the ladder/watchdog time base).
  uint64_t nsSinceStart() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

  /// Moves the ladder to \p T, folding elapsed time into the old tier's
  /// bucket. Producer thread only.
  void setTier(DegradeTier T);

  /// Removes decoration records from the pending Scratch, counting them
  /// as shed. Structural records (and whole decoration record groups —
  /// the droppable opcodes are contiguous) survive.
  void shedPendingDecorations();

  /// Sampling gate for decoration events: true = emit. Counts the skip.
  bool sampleGate() {
    if (!SamplingOn || SampleThisTick)
      return true;
    SamplingDropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Combined decoration gate: the degradation ladder first (tier sheds),
  /// then the overhead-budget sampler.
  bool decorationGate() {
    if (Config.Policy == BackpressurePolicy::Degrade &&
        LadderTier != DegradeTier::Lossless &&
        (LadderTier == DegradeTier::StructuralOnly || !LadderSampleTick)) {
      LadderShed.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return sampleGate();
  }

  /// \name Emit-cost accounting (no-ops while sampling is off).
  /// @{
  std::chrono::steady_clock::time_point emitStart() const {
    if (SamplingOn && CalibrateLeft)
      return std::chrono::steady_clock::now();
    return {};
  }
  void emitEnd(std::chrono::steady_clock::time_point T0);
  /// @}

  void consumerMain();

  /// Deferred mode: unparks the builder thread.
  void wakeConsumer();

  instr::AnalysisBase &Sink;
  PipelineConfig Config;
  SpscRing<trace::TraceRecord> Ring;

  /// Producer-side encoder state + scratch (loop thread only).
  instr::TraceEncoder Encoder;
  std::vector<trace::TraceRecord> Scratch;

  /// Consumer-side decoder state (builder thread only).
  instr::TraceDecoder Decoder;

  /// Recording tee (builder thread only; the atomics mirror its progress
  /// for cross-thread snapshots).
  trace::TraceFileWriter RecWriter;
  std::atomic<uint64_t> RecordedBytes{0};
  std::atomic<bool> RecordFailed{false};

  std::atomic<uint64_t> Pushed{0};
  std::atomic<uint64_t> Consumed{0};
  std::atomic<uint64_t> DroppedEvents{0};

  /// Sampling state. The decision and calibration counters live on the
  /// producer thread; the exported totals are atomic only so mid-run
  /// snapshots from other threads stay well-defined.
  bool SamplingOn = false;
  bool SampleThisTick = true;
  unsigned CalibrateLeft = CalibrateEvents;
  uint64_t CalibNs = 0;
  uint64_t CalibCount = 0;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> EstEmitNs{0};
  std::atomic<uint64_t> EstSpentNs{0};
  std::atomic<uint64_t> TotalTicks{0};
  std::atomic<uint64_t> SampledTicks{0};
  std::atomic<uint64_t> SamplingDropped{0};

  /// Backpressure counters, written by the producer only (atomic so
  /// mid-run snapshots from other threads stay well-defined).
  std::atomic<uint64_t> BlockedPushes{0};
  std::atomic<uint64_t> BlockedTimeNs{0};
  std::atomic<uint64_t> MaxQueueDepth{0};
  std::atomic<bool> StopRequested{false};

  /// Degradation-ladder state. The tier and decisions live on the
  /// producer thread; atomics mirror them for cross-thread snapshots.
  DegradeTier LadderTier = DegradeTier::Lossless;
  bool LadderSampleTick = true;
  uint64_t LadderTicks = 0;
  uint32_t QuietTicks = 0;
  std::atomic<uint32_t> TierAtomic{0};
  std::atomic<uint64_t> TierSinceNs{0};
  std::atomic<uint64_t> TierTimeNs[NumDegradeTiers] = {};
  std::atomic<uint64_t> LadderShed{0};
  std::atomic<uint64_t> Escalations{0};
  std::atomic<uint64_t> Recoveries{0};

  /// Watchdog: the builder thread stores its progress time here; the
  /// producer compares at tick boundaries and warns on stalls.
  std::atomic<uint64_t> HeartbeatNs{0};
  std::atomic<uint64_t> WatchdogStalls{0};
  bool InStall = false;

  /// Parking lot for DrainMode::Deferred (unused in Concurrent mode).
  std::mutex WakeMutex;
  std::condition_variable WakeCv;
  bool WakeRequested = false;

  std::thread Builder;
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_ASYNCPIPELINE_H
