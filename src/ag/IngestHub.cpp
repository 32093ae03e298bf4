//===- IngestHub.cpp - Parallel trace ingestion + stream merge ------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/IngestHub.h"

#include "instr/TraceCodec.h"
#include "support/MpmcQueue.h"

#include <algorithm>
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

/// Frame-decode workers for one stream, plus the sliding decode window
/// they fill: frame F lands in slot F % Slots.size().
struct DecodePool {
  struct Slot {
    std::vector<trace::TraceRecord> Records;
    std::string Err;
    std::atomic<int> State{SlotEmpty};
  };

  DecodePool(const instr::TraceStream &Trace, unsigned Workers, size_t Window)
      : Trace(Trace), Slots(Window), Queue(Window) {
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
    size_t FrameIdx;
    if (!Queue.tryPop(FrameIdx))
      return false;
    Slot &SL = Slots[FrameIdx % Slots.size()];
    bool Ok = Trace.decodeFrame(FrameIdx, SL.Records, &SL.Err);
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

  const instr::TraceStream &Trace;
  std::vector<Slot> Slots;
  MpmcQueue<size_t> Queue;
  std::mutex M;
  std::condition_variable Cv;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// Commits every frame of \p Trace into \p Sink in order, with \p Jobs - 1
/// decode workers filling a window of 2 * Jobs + 2 frames ahead.
bool drainPooled(instr::TraceStream &Trace, instr::AnalysisBase &Sink,
                 unsigned Jobs, std::string *Err) {
  DecodePool Pool(Trace, Jobs - 1, 2 * Jobs + 2);
  const size_t W = Pool.Slots.size();
  size_t NextQueued = 0;
  while (!Trace.done()) {
    // Keep the decode window primed: up to W frames in flight.
    const size_t Next = Trace.nextFrame();
    bool Pushed = false;
    while (NextQueued < Trace.frameCount() && NextQueued < Next + W) {
      DecodePool::Slot &QS = Pool.Slots[NextQueued % W];
      QS.State.store(SlotQueued, std::memory_order_relaxed);
      if (!Pool.Queue.tryPush(NextQueued)) {
        QS.State.store(SlotEmpty, std::memory_order_relaxed);
        break;
      }
      Pushed = true;
      ++NextQueued;
    }
    if (Pushed)
      Pool.notifyWork();

    DecodePool::Slot &SL = Pool.Slots[Next % W];
    int State = SL.State.load(std::memory_order_acquire);
    if (State == SlotDone) {
      Trace.applyDecoded(SL.Records, Sink);
      SL.State.store(SlotEmpty, std::memory_order_relaxed);
      continue;
    }
    if (State == SlotError) {
      SL.State.store(SlotEmpty, std::memory_order_relaxed);
      return Trace.failNext(SL.Err, Err);
    }
    // Next frame still decoding: steal a decode task instead of
    // blocking; park briefly only when the queue is dry too.
    if (!Pool.runOne())
      Pool.waitBriefly();
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// IngestHub
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
};

IngestHub::IngestHub(IngestOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Jobs == 0)
    this->Opts.Jobs = 1;
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

bool IngestHub::ingestStream(Stream &S, std::string *Err) {
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

  std::string FrameErr;
  const bool Ok = Streams.size() == 1 && Opts.Jobs >= 2
                      ? drainPooled(S.Trace, *S.Builder, Opts.Jobs, &FrameErr)
                      : S.Trace.applyAll(*S.Builder, &FrameErr);

  const instr::ReplayStats RS = S.Trace.stats();
  IngestStreamStats &St = Stats.Streams[S.Idx];
  St.Version = RS.Version;
  St.Records = RS.Records;
  St.RecordBytes = RS.RecordBytes;
  St.Frames = S.Trace.nextFrame();
  St.BadRecords = RS.BadRecords;
  St.Recovered = RS.Recovered;
  St.DroppedTailBytes = RS.DroppedTailBytes;
  if (!Ok && Err)
    *Err = S.Path + ": " + FrameErr;
  return Ok;
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

  // Stream workers: each takes the next unstarted stream until none is
  // left or one has failed. Every stream touches only its own builder,
  // observers and stats slot, so the workers share only the two atomics
  // below and the thread-safe symbol table.
  const size_t N = Streams.size();
  std::vector<std::string> Errs(N);
  std::vector<uint8_t> Failed(N, 0);
  std::atomic<size_t> NextStream{0};
  std::atomic<bool> Stop{false};
  auto Worker = [&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = NextStream.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      if (!ingestStream(*Streams[I], &Errs[I])) {
        Failed[I] = 1;
        Stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> Helpers;
    for (size_t T = 1; T < std::min<size_t>(Opts.Jobs, N); ++T)
      Helpers.emplace_back(Worker);
    Worker();
  } // joins the helpers

  Stats.Windows = std::min(NextStream.load(), N);
  for (const IngestStreamStats &St : Stats.Streams) {
    Stats.Records += St.Records;
    Stats.Frames += St.Frames;
  }
  for (size_t I = 0; I != N; ++I)
    if (Failed[I]) {
      if (Err)
        *Err = Errs[I];
      return false;
    }

  // Shard-major union in stream order, moving each stream's graph: the
  // same graph ShardedGraph::build() makes from copies.
  if (N > 1) {
    for (uint32_t I = 0; I != N; ++I)
      Merged.mergeShard(std::move(Streams[I]->Builder->graph()), I);
    Merged.finishMerge();
  }
  return true;
}
