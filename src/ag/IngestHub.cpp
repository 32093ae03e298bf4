//===- IngestHub.cpp - Parallel trace ingestion + stream merge ------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/IngestHub.h"

#include "instr/TraceCodec.h"
#include "support/MpmcQueue.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace asyncg;
using namespace asyncg::ag;

namespace {

/// Slot lifecycle: the committer marks a slot Queued and pushes its frame
/// task; whichever thread pops the task decodes into the slot and flips it
/// to Done or Error; the committer consumes it in frame order and recycles
/// it to Empty. The queue's push/pop pair carries the ownership handoff,
/// the Done store/load pair carries the decoded records back.
enum SlotState : int { SlotEmpty = 0, SlotQueued, SlotDone, SlotError };

} // namespace

//===----------------------------------------------------------------------===//
// Stream and decode-pool state
//===----------------------------------------------------------------------===//

struct IngestHub::Stream {
  explicit Stream(size_t Idx, std::string Path, const BuilderConfig &Config)
      : Idx(Idx), Path(std::move(Path)),
        Builder(new AsyncGBuilder(Config)) {}

  size_t Idx;
  std::string Path;
  std::unique_ptr<AsyncGBuilder> Builder;

  /// The replay engine: mapping, frame plan, decoder (alive for the hub's
  /// lifetime).
  instr::TraceStream Trace;

  size_t NextQueued = 0; ///< next frame to hand to the decode pool
  bool Drained = false;

  /// Handoff-stat scan cursor into the builder graph's node storage.
  size_t ScanPos = 0;

  struct Slot {
    std::vector<trace::TraceRecord> Records;
    std::string Err;
    std::atomic<int> State{SlotEmpty};
  };
  /// Sliding decode window; frame F lands in slot F % Slots.size().
  std::vector<Slot> Slots;
};

struct IngestHub::DecodePool {
  struct Task {
    Stream *S = nullptr;
    size_t FrameIdx = 0;
  };

  DecodePool(unsigned Workers, size_t QueueCap) : Queue(QueueCap) {
    Threads.reserve(Workers);
    for (unsigned I = 0; I != Workers; ++I)
      Threads.emplace_back([this] { workerMain(); });
  }

  ~DecodePool() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop.store(true, std::memory_order_relaxed);
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Pops and decodes one frame task; false when the queue is empty. Also
  /// the committer's steal entry point: decode is stateless, so any thread
  /// may serve any task.
  bool runOne() {
    Task T;
    if (!Queue.tryPop(T))
      return false;
    Stream::Slot &SL = T.S->Slots[T.FrameIdx % T.S->Slots.size()];
    bool Ok = T.S->Trace.decodeFrame(T.FrameIdx, SL.Records, &SL.Err);
    SL.State.store(Ok ? SlotDone : SlotError, std::memory_order_release);
    Cv.notify_all();
    return true;
  }

  void notifyWork() { Cv.notify_all(); }

  void waitBriefly() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L, std::chrono::milliseconds(1));
  }

  void workerMain() {
    while (!Stop.load(std::memory_order_relaxed)) {
      if (runOne())
        continue;
      std::unique_lock<std::mutex> L(M);
      if (Stop.load(std::memory_order_relaxed) || Queue.sizeApprox() != 0)
        continue;
      Cv.wait_for(L, std::chrono::milliseconds(1));
    }
  }

  MpmcQueue<Task> Queue;
  std::mutex M;
  std::condition_variable Cv;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

//===----------------------------------------------------------------------===//
// IngestHub
//===----------------------------------------------------------------------===//

IngestHub::IngestHub(IngestOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Jobs == 0)
    this->Opts.Jobs = 1;
  if (this->Opts.WindowTicks == 0)
    this->Opts.WindowTicks = 1;
}

IngestHub::~IngestHub() = default;

size_t IngestHub::addFile(const std::string &Path) {
  size_t Idx = Streams.size();
  Streams.emplace_back(new Stream(Idx, Path, Opts.Builder));
  Stats.Streams.emplace_back();
  Stats.Streams.back().Path = Path;
  return Idx;
}

AsyncGBuilder &IngestHub::builder(size_t I) { return *Streams[I]->Builder; }

const AsyncGBuilder &IngestHub::builder(size_t I) const {
  return *Streams[I]->Builder;
}

const AsyncGraph &IngestHub::graph() const {
  if (Streams.size() > 1)
    return Merged.merged();
  return Streams.front()->Builder->graph();
}

bool IngestHub::prepareStream(Stream &S, std::string *Err) {
  std::string OpenErr;
  if (!S.Trace.open(S.Path, &OpenErr)) {
    if (Err)
      *Err = S.Path + ": " + OpenErr;
    return false;
  }
  if (Opts.Builder.BuildGraph) {
    // Pre-size the graph (node/edge/tick/adjacency storage and the four
    // node indices) from the exact record count the pre-scan established.
    // The divisors slightly overshoot the observed record:node (~2.8),
    // record:edge (~1.7) and record:tick (~7.5) ratios of the paper
    // workloads so the *last* — and costliest — rehash/reallocation never
    // happens mid-ingest.
    uint64_t Records = S.Trace.scannedRecords();
    S.Builder->graph().reserveHint(static_cast<size_t>(Records / 2 + 1024),
                                   static_cast<size_t>(Records * 2 / 3 + 1024),
                                   static_cast<size_t>(Records / 6 + 64));
  }
  if (Opts.Jobs >= 2)
    S.Slots = std::vector<Stream::Slot>(2 * Opts.Jobs + 2);
  return true;
}

bool IngestHub::pumpStream(Stream &S, std::string *Err) {
  const uint64_t WindowBase = S.Builder->ticksCommitted();
  const bool Windowed = Streams.size() > 1;
  auto WindowClosed = [&] {
    return Windowed &&
           S.Builder->ticksCommitted() - WindowBase >= Opts.WindowTicks;
  };
  const uint64_t Records0 = S.Trace.stats().Records;
  const size_t Frames0 = S.Trace.nextFrame();

  std::string FrameErr;
  bool Ok = true;
  if (Opts.Jobs < 2) {
    Ok = S.Trace.apply(*S.Builder, &FrameErr, WindowClosed);
  } else {
    const size_t W = S.Slots.size();
    while (!S.Trace.done()) {
      // Keep the decode window primed: up to W frames in flight.
      const size_t Next = S.Trace.nextFrame();
      bool Pushed = false;
      while (S.NextQueued < S.Trace.frameCount() &&
             S.NextQueued < Next + W) {
        Stream::Slot &QS = S.Slots[S.NextQueued % W];
        QS.State.store(SlotQueued, std::memory_order_relaxed);
        if (!Pool->Queue.tryPush({&S, S.NextQueued})) {
          QS.State.store(SlotEmpty, std::memory_order_relaxed);
          break;
        }
        Pushed = true;
        ++S.NextQueued;
      }
      if (Pushed)
        Pool->notifyWork();

      Stream::Slot &SL = S.Slots[Next % W];
      int State = SL.State.load(std::memory_order_acquire);
      if (State == SlotDone) {
        S.Trace.applyDecoded(SL.Records, *S.Builder);
        SL.State.store(SlotEmpty, std::memory_order_relaxed);
        if (WindowClosed())
          break;
        continue;
      }
      if (State == SlotError) {
        SL.State.store(SlotEmpty, std::memory_order_relaxed);
        Ok = S.Trace.failNext(SL.Err, &FrameErr);
        break;
      }
      // Next frame still decoding: steal a decode task instead of
      // blocking; park briefly only when the queue is dry too.
      if (!Pool->runOne())
        Pool->waitBriefly();
    }
  }

  const instr::ReplayStats RS = S.Trace.stats();
  IngestStreamStats &St = Stats.Streams[S.Idx];
  St.Version = RS.Version;
  St.Records = RS.Records;
  St.RecordBytes = RS.RecordBytes;
  St.Frames = S.Trace.nextFrame();
  St.BadRecords = RS.BadRecords;
  St.Recovered = RS.Recovered;
  St.DroppedTailBytes = RS.DroppedTailBytes;
  Stats.Records += RS.Records - Records0;
  Stats.Frames += S.Trace.nextFrame() - Frames0;
  if (!Ok) {
    if (Err)
      *Err = S.Path + ": " + FrameErr;
    return false;
  }
  S.Drained = S.Trace.done();
  return true;
}

void IngestHub::scanHandoffs(Stream &S) {
  // Node slots are recycled under retirement, which would invalidate the
  // cursor; the live view is only kept for full graphs.
  if (Opts.Builder.Retire)
    return;
  const std::vector<AgNode> &Nodes = S.Builder->graph().nodes();
  for (; S.ScanPos < Nodes.size(); ++S.ScanPos) {
    const AgNode &N = Nodes[S.ScanPos];
    if (N.Id == InvalidNode)
      continue;
    if (N.Kind == NodeKind::CT && N.Trigger != 0) {
      CtSeen[N.Trigger] = 1;
    } else if (N.Kind == NodeKind::CE &&
               N.Api == jsrt::ApiKind::ClusterRecv && N.Sched != 0) {
      ++Stats.HandoffsSeen;
      if (CtSeen.find(N.Sched))
        ++Stats.HandoffsResolvedLive;
      else
        ParkedHandoffs.push_back(N.Sched);
    }
  }
}

bool IngestHub::run(std::string *Err) {
  if (Ran) {
    if (Err)
      *Err = "ingest hub is single-shot";
    return false;
  }
  Ran = true;
  if (Streams.empty()) {
    if (Err)
      *Err = "ingest: no input streams";
    return false;
  }

  for (auto &SP : Streams)
    if (!prepareStream(*SP, Err))
      return false;

  bool NeedPool = false;
  if (Opts.Jobs >= 2)
    for (auto &SP : Streams)
      NeedPool |= !SP->Slots.empty();
  if (NeedPool) {
    size_t Cap = Streams.size() * (2 * Opts.Jobs + 2);
    Pool.reset(new DecodePool(Opts.Jobs - 1, Cap < 64 ? 64 : Cap));
  }

  // Bounded round-robin over the live streams; each turn commits up to
  // WindowTicks ticks (single-stream runs drain in one turn).
  bool Ok = true;
  for (bool AllDrained = false; Ok && !AllDrained;) {
    AllDrained = true;
    for (auto &SP : Streams) {
      Stream &S = *SP;
      if (S.Drained)
        continue;
      ++Stats.Windows;
      if (!pumpStream(S, Err)) {
        Ok = false;
        break;
      }
      scanHandoffs(S);
      AllDrained &= S.Drained;
    }
  }
  Pool.reset(); // joins the decode workers
  if (!Ok)
    return false;

  // Deliveries whose sender CT arrived in a later window resolve now.
  for (jsrt::ScheduleId Id : ParkedHandoffs)
    if (CtSeen.find(Id))
      ++Stats.HandoffsResolvedLive;

  // Shard-major union in stream order: identical to the single-shot
  // ShardedGraph::build() over the same graphs.
  if (Streams.size() > 1) {
    for (uint32_t I = 0; I != Streams.size(); ++I)
      Merged.mergeShard(Streams[I]->Builder->graph(), I);
    Merged.finishMerge();
  }
  return true;
}
