//===- TraceCodec.h - Hook events <-> binary trace records ------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates between the instrumentation hook events (instr/Hooks.h) and
/// the fixed-size binary records of support/TraceFormat.h:
///
///  - TraceEncoder runs on the event-loop thread. It turns each event into
///    a short span of records in a caller-owned scratch vector (steady
///    state: no allocation) and emits one FuncDef per function the first
///    time it appears (entered, or passed to an API), so consumers can
///    rebuild Function identities.
///  - TraceDecoder runs wherever the records are consumed — the async
///    pipeline's builder thread or an offline replay — and fires the
///    reconstructed events into any AnalysisBase. Function handles are
///    materialized from FuncDef records (name, location, builtin flag; the
///    body is empty, which no analysis invokes).
///  - TraceRecorder is an AnalysisBase that encodes straight into an
///    `.agtrace` file: attach it to a runtime to record a workload, then
///    replayTrace() the file into a fresh AsyncGBuilder at zero loop cost.
///  - TraceStream is the one replay engine: it maps an `.agtrace` file,
///    locates its frames (finalized or torn), and applies them in file
///    order into any AnalysisBase. replayTrace() and the ingest hub
///    (ag/IngestHub.h) both run on it.
///
/// PropertyAccessEvent and UncaughtErrorEvent are not encoded (they carry
/// borrowed Values / uninterned strings and feed only the synchronous race
/// analysis); everything the Async Graph builder consumes round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_INSTR_TRACECODEC_H
#define ASYNCG_INSTR_TRACECODEC_H

#include "instr/Hooks.h"
#include "support/FlatMap.h"
#include "support/TraceFormat.h"

#include <memory>
#include <string>
#include <vector>

namespace asyncg {
namespace instr {

//===----------------------------------------------------------------------===//
// TraceEncoder
//===----------------------------------------------------------------------===//

/// Encodes hook events into trace records. Append-only into a caller-owned
/// vector so the caller controls batching (ring push vs file write).
class TraceEncoder {
public:
  /// \name Event encoders: append the event's records to \p Out.
  /// @{
  void functionEnter(const FunctionEnterEvent &E,
                     std::vector<trace::TraceRecord> &Out);
  void functionExit(const FunctionExitEvent &E,
                    std::vector<trace::TraceRecord> &Out);
  void apiCall(const ApiCallEvent &E, std::vector<trace::TraceRecord> &Out);
  void objectCreate(const ObjectCreateEvent &E,
                    std::vector<trace::TraceRecord> &Out);
  void reactionResult(const ReactionResultEvent &E,
                      std::vector<trace::TraceRecord> &Out);
  void promiseLink(const PromiseLinkEvent &E,
                   std::vector<trace::TraceRecord> &Out);
  void objectRelease(const ObjectReleaseEvent &E,
                     std::vector<trace::TraceRecord> &Out);
  void loopEnd(const LoopEndEvent &E, std::vector<trace::TraceRecord> &Out);
  /// @}

  /// Appends a ShardInfo record naming the recording loop's shard.
  /// Cluster streams emit it first; callers skip it for shard 0 so
  /// single-loop streams carry no such record.
  void shardInfo(uint32_t Shard, std::vector<trace::TraceRecord> &Out);

private:
  /// Emits a FuncDef for \p F if this encoder hasn't yet.
  void defineFunc(const jsrt::Function &F,
                  std::vector<trace::TraceRecord> &Out);

  /// Function ids already defined, indexed by the shard-local part of the
  /// id (an encoder serves exactly one shard, and local ids are small and
  /// sequential; the full id carries the shard in its top bits).
  std::vector<bool> SeenFunc;
};

//===----------------------------------------------------------------------===//
// TraceDecoder
//===----------------------------------------------------------------------===//

/// Decodes trace records and fires the reconstructed events into a sink
/// analysis. Single-threaded; feed records in encode order.
class TraceDecoder {
public:
  /// Installs the old-id -> new-id symbol mapping of a cross-process trace
  /// (TraceMmapReader::symbolRemap()). Without one, ids are taken as-is
  /// (in-process ring transport).
  void setSymbolRemap(std::vector<SymbolId> Remap) {
    this->Remap = std::move(Remap);
  }

  /// Decodes \p N records, invoking \p Sink's hooks.
  void decode(const trace::TraceRecord *Records, size_t N,
              AnalysisBase &Sink);

  /// Decodes a single record (TraceStream feeds records straight out of
  /// the frame decoder, no intermediate buffer).
  void decodeOne(const trace::TraceRecord &R, AnalysisBase &Sink) {
    feed(R, Sink);
  }

  /// Records whose opcode or sequencing was invalid (diagnostics; such
  /// records are skipped).
  uint64_t badRecords() const { return BadRecords; }

  /// Shard announced by a ShardInfo record (0 for single-loop traces).
  uint32_t shard() const { return ShardId; }

  /// \name Function table size
  /// Function handles live in pages of FuncPageSize slots, indexed
  /// directly by id. The page directory covers one window of page numbers,
  /// anchored at the first id the decoder meets (1 for a run recorded from
  /// its start, about the runtime's function count for a mid-run attach);
  /// it widens to take in a page only while it stays within
  /// FuncDirSlack directory entries per allocated page. An id outside that
  /// — another shard's id, whose shard bits put it ~2^56 away, or a
  /// corrupt one like 2^40 — is a stray: it is kept in a hash map and
  /// counted by strayFuncs(), and allocates no page.
  /// @{
  static constexpr unsigned FuncPageBits = 8;
  static constexpr uint64_t FuncPageSize = uint64_t(1) << FuncPageBits;
  static constexpr size_t FuncDirSlack = 64;
  /// Pages allocated for in-window ids.
  size_t funcPages() const { return PagesAllocated; }
  /// Functions met whose ids fell outside the page window.
  size_t strayFuncs() const { return StrayFuncs.size(); }
  /// @}

private:
  void feed(const trace::TraceRecord &R, AnalysisBase &Sink);
  Symbol sym(uint32_t Raw) const;
  SourceLocation loc(uint64_t Packed) const;

  /// Returns the Function handle for \p Id, creating a placeholder if no
  /// FuncDef arrived yet (e.g. callbacks referenced before first entry).
  /// The handle stays at its address until the decoder dies, except a
  /// stray's, which lives only until the next stray is added.
  const jsrt::Function &funcFor(jsrt::FunctionId Id) {
    const uint64_t Page = (Id >> FuncPageBits) - FuncPageBase;
    if (Page < FuncDir.size() && FuncDir[Page]) {
      jsrt::Function &F = FuncDir[Page]->Slots[Id & (FuncPageSize - 1)];
      if (F)
        return F;
    }
    return newFunc(Id);
  }
  /// funcFor()'s cold path: a first sight, a new page, or a stray.
  const jsrt::Function &newFunc(jsrt::FunctionId Id);

  struct FuncPage {
    jsrt::Function Slots[FuncPageSize];
  };
  /// Page directory: entry I holds page FuncPageBase + I (null: no id of
  /// that page met yet).
  std::vector<std::unique_ptr<FuncPage>> FuncDir;
  uint64_t FuncPageBase = 0;
  size_t PagesAllocated = 0;
  FlatMap<jsrt::FunctionId, jsrt::Function> StrayFuncs;
  std::vector<SymbolId> Remap;

  /// Pending EnterTrigger for the next Enter.
  jsrt::TriggerInfo PendingTrigger;
  /// Multi-record ApiCall assembly state.
  ApiCallEvent Api;
  SourceLocation ApiLoc;
  unsigned ApiFuncsLeft = 0;
  unsigned ApiInputsLeft = 0;
  bool ApiOpen = false;

  uint32_t ShardId = 0;
  uint64_t BadRecords = 0;

  void finishApiIfReady(AnalysisBase &Sink);
};

//===----------------------------------------------------------------------===//
// Recording and replay
//===----------------------------------------------------------------------===//

/// An analysis that records the instrumented run into an `.agtrace` file.
///
/// \code
///   instr::TraceRecorder Rec;
///   Rec.open("run.agtrace");
///   RT.hooks().attach(&Rec);
///   RT.main(Main);
///   Rec.finalize();
/// \endcode
class TraceRecorder final : public AnalysisBase {
public:
  const char *analysisName() const override { return "trace-recorder"; }

  /// Opens \p Path. When recording a cluster shard, pass its non-zero
  /// \p Shard and a ShardInfo record leads the stream; shard 0 writes no
  /// such record.
  bool open(const std::string &Path, uint32_t Shard = 0);
  bool finalize();
  uint64_t recordCount() const { return Writer.recordCount(); }

  /// Bytes of the record frames written so far (the size lever v4 pulls;
  /// excludes the header, the symbol checkpoints and section, and any
  /// still-buffered records). Replay reports the same sum.
  uint64_t recordBytes() const { return Writer.recordBytes(); }

  void onFunctionEnter(const FunctionEnterEvent &E) override;
  void onFunctionExit(const FunctionExitEvent &E) override;
  void onApiCall(const ApiCallEvent &E) override;
  void onObjectCreate(const ObjectCreateEvent &E) override;
  void onReactionResult(const ReactionResultEvent &E) override;
  void onPromiseLink(const PromiseLinkEvent &E) override;
  void onObjectRelease(const ObjectReleaseEvent &E) override;
  void onLoopEnd(const LoopEndEvent &E) override;

private:
  void flushScratch();

  TraceEncoder Encoder;
  std::vector<trace::TraceRecord> Scratch;
  trace::TraceFileWriter Writer;
};

/// How replayTrace reads the file back. There is one way — TraceStream
/// maps the file and applies its frames — so Auto is the only value. The
/// parameter stays because replayTrace's signature is a stable surface:
/// callers that pass it (perfbench among them) build unchanged.
enum class ReplayTransport {
  Auto,
};

/// Decode-side counters from a replay.
struct ReplayStats {
  uint64_t Records = 0;
  /// Bytes of the record frames applied, symbol checkpoints excluded: for
  /// a fully replayed file this equals TraceRecorder::recordBytes().
  uint64_t RecordBytes = 0;
  /// Records whose opcode or sequencing was invalid (skipped).
  uint64_t BadRecords = 0;
  uint32_t Version = 0;
  /// True when the strict open failed (torn/truncated recording) and the
  /// replay salvaged the clean frame-aligned prefix via the v4 checkpoint
  /// chain instead. Records/RecordBytes then describe the prefix.
  bool Recovered = false;
  /// Bytes abandoned after the last clean frame (recovered replays only).
  uint64_t DroppedTailBytes = 0;
};

/// The replay engine: one mapped `.agtrace` stream, its frame plan, and the
/// decoder state that carries across frames.
///
/// open() maps the file once. A finalized image is validated and its
/// frames located by trace::scanV4Frames; an image whose validation fails
/// on content (a recording torn by a crash) is located instead by
/// trace::scanV4Recovery, each frame tagged with the symbol-remap prefix
/// it needs. Frames are then applied strictly in file order: the next frame
/// is prefetched, and the sink gets onBatchBoundary() after every frame. A
/// frame that fails to decode truncates a recovered stream there (the
/// clean prefix survives) and is a hard error for a validated one.
///
/// decodeFrame() is the stateless half: any thread may decode any located
/// frame while the applying thread keeps going, which is how the ingest
/// hub's decode pool feeds applyDecoded().
class TraceStream {
public:
  /// Maps \p Path and locates its frames. Returns false with \p Err set
  /// when the file cannot be read, is not an `.agtrace`, has a version
  /// other than trace::TraceVersion, or is a validated image whose frame
  /// chain is corrupt.
  bool open(const std::string &Path, std::string *Err = nullptr);

  /// Applies frames in order until the stream drains or \p Stop() returns
  /// true after a frame. Returns false with \p Err on a hard error.
  template <typename StopFn>
  bool apply(AnalysisBase &Sink, std::string *Err, StopFn &&Stop) {
    while (!done()) {
      if (!applyNext(Sink, Err))
        return false;
      if (Stop())
        break;
    }
    return true;
  }
  bool applyAll(AnalysisBase &Sink, std::string *Err) {
    return apply(Sink, Err, [] { return false; });
  }

  /// Decodes located frame \p I into \p Out (stateless; any thread).
  bool decodeFrame(size_t I, std::vector<trace::TraceRecord> &Out,
                   std::string *Err) const;

  /// Applies the next frame from records decodeFrame() produced for it.
  void applyDecoded(const std::vector<trace::TraceRecord> &Records,
                    AnalysisBase &Sink);

  /// The next frame failed to decode with \p FrameErr: truncates a
  /// recovered stream there and returns true, or returns false with
  /// \p Err set for a validated stream.
  bool failNext(const std::string &FrameErr, std::string *Err);

  bool done() const { return Next >= Limit; }
  /// Index of the next frame to apply (= frames applied so far).
  size_t nextFrame() const { return Next; }
  /// Frames located by the scan (truncation does not shrink this, so
  /// decode workers may still hold indices past a truncation point).
  size_t frameCount() const { return Frames.size(); }
  /// Records in all located frames (known before the first apply).
  uint64_t scannedRecords() const { return ScannedRecords; }

  /// Counters so far.
  ReplayStats stats() const {
    ReplayStats S = Stats;
    S.BadRecords = Decoder.badRecords();
    return S;
  }

private:
  bool applyNext(AnalysisBase &Sink, std::string *Err);
  /// Installs the symbol-remap prefix frame \p F expects (recovery only).
  void syncRemap(const trace::TraceFrameRef &F);
  /// Bookkeeping after frame \p F (the one at Next) reached the sink.
  void commit(const trace::TraceFrameRef &F, AnalysisBase &Sink);

  trace::TraceMmapReader Map;
  TraceDecoder Decoder;
  /// Frame plan. Offsets are relative to Base: the record section of a
  /// validated image, the whole image for a recovery scan.
  std::vector<trace::TraceFrameRef> Frames;
  const uint8_t *Base = nullptr;
  size_t Next = 0;
  size_t Limit = 0;
  uint64_t ScannedRecords = 0;

  std::vector<SymbolId> RecoveryRemap;
  uint32_t RemapInstalled = 0;
  /// Materialized frame for recovered streams: a frame that fails
  /// mid-decode must not leak events into the sink.
  std::vector<trace::TraceRecord> Scratch;
  ReplayStats Stats;
};

/// Rebuilds a run from \p Path by firing every recorded event into
/// \p Sink (typically an ag::AsyncGBuilder): TraceStream::open() plus
/// applyAll(). Returns false and sets \p Err on open/validation/decode
/// failure. \p Stats, when non-null, receives decode-side counters even on
/// partial failure.
bool replayTrace(const std::string &Path, AnalysisBase &Sink,
                 std::string *Err = nullptr,
                 ReplayTransport Transport = ReplayTransport::Auto,
                 ReplayStats *Stats = nullptr);

} // namespace instr
} // namespace asyncg

#endif // ASYNCG_INSTR_TRACECODEC_H
