//===- IngestHub.h - Parallel trace ingestion + stream merge ----*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline trace ingestion, restructured around the v4 frame layout: every
/// record frame is self-contained (column deltas reset per frame), so the
/// expensive half of replay — frame bytes -> TraceRecord rows — can run
/// out of order, as long as the cheap half — records -> decoder events ->
/// builder — applies frames in file order. The hub exploits that split
/// three ways:
///
///  - Pre-scan. scanV4Frames() locates every frame of the mapped record
///    section up front (O(frames), header reads only), which both feeds
///    the decode scheduler and tells the hub the exact record count before
///    the first event fires, so graph storage is pre-sized once instead of
///    grown through reallocation.
///
///  - Pipelined decode. Each stream is an instr::TraceStream, the engine
///    replayTrace() runs on. With Jobs == 1 the hub runs that engine's
///    apply loop (frames decoded straight from the mapping under the
///    decoder's batch memo, next frame prefetched), stopping early when
///    the stream's tick window closes. With Jobs >= 2 it runs Jobs - 1
///    decode workers plus the committing thread: workers pull frame tasks
///    from a shared MpmcQueue and call the engine's stateless
///    decodeFrame() into per-slot record buffers; the committer hands
///    finished slots to the engine's applyDecoded() strictly in frame
///    order, and when its next-needed slot is still pending it steals a
///    decode task itself instead of blocking. Ordered commit keeps the
///    decoder's cross-frame state (api assembly, symbol remap, function
///    table) exactly as serial replay would have it, so DOT output and
///    warning sets are byte-identical to replayTrace() at any job count.
///
///  - Streaming merge. N input streams (e.g. one per cluster shard) are
///    ingested in bounded round-robin tick windows, each stream feeding
///    its own AsyncGBuilder — live observers attached via builder() see
///    every stream make progress instead of one stream at a time. At the
///    end the per-stream graphs are unioned through ShardedGraph's
///    incremental mergeShard()/finishMerge(), in stream order, which is
///    the same shard-major renumbering the batch merge performs: the
///    merged graph is byte-identical to ShardedGraph::build() over the
///    same graphs. Cross-loop handoffs are also tracked incrementally
///    during ingestion (sender CT trigger ids vs ClusterRecv CE schedule
///    ids) for live stats; the authoritative "xloop" edges still come
///    from the final merge.
///
/// Torn streams (crash recordings) are located by the engine's recovery
/// pre-scan and decoded through the same pipeline; a frame that fails to
/// decode truncates the stream there (TraceStream::failNext), exactly as
/// replayTrace() would.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_INGESTHUB_H
#define ASYNCG_AG_INGESTHUB_H

#include "ag/Builder.h"
#include "ag/ShardedGraph.h"

#include <memory>
#include <string>
#include <vector>

namespace asyncg {
namespace ag {

/// Ingestion configuration.
struct IngestOptions {
  /// Total threads working on decode: 1 ingests inline (pipelined but
  /// threadless — the right setting on single-core hosts); N >= 2 spawns
  /// N - 1 decode workers beside the committing thread.
  unsigned Jobs = 1;
  /// Multi-stream scheduling grain: a stream yields to the next one after
  /// committing this many ticks. Smaller windows mean fresher live stats
  /// across streams; the final merged graph is identical either way.
  uint32_t WindowTicks = 256;
  /// Builder template applied to every stream (promise/emitter filtering,
  /// retirement, ...). The storage hints are superseded by the pre-scan,
  /// which sizes each stream's graph from its exact record count.
  BuilderConfig Builder;
};

/// Per-stream outcome counters.
struct IngestStreamStats {
  std::string Path;
  uint32_t Version = 0;
  uint64_t Records = 0;
  /// Bytes of the record frames applied (as instr::ReplayStats).
  uint64_t RecordBytes = 0;
  uint64_t Frames = 0;
  uint64_t BadRecords = 0;
  /// Strict open failed; the clean frame prefix was salvaged through the
  /// checkpoint chain (Records/RecordBytes then describe the prefix).
  bool Recovered = false;
  uint64_t DroppedTailBytes = 0;
};

/// Whole-run counters.
struct IngestStats {
  uint64_t Records = 0;
  uint64_t Frames = 0;
  /// Round-robin turns taken (1 per stream when everything fits one
  /// window).
  uint64_t Windows = 0;
  /// Cross-loop handoff deliveries observed during ingestion, and how
  /// many had already seen their sender's CT when counted (live view;
  /// the merge's MergeStats is authoritative). Tracked only for
  /// non-retiring builders.
  uint64_t HandoffsSeen = 0;
  uint64_t HandoffsResolvedLive = 0;
  std::vector<IngestStreamStats> Streams;
};

/// Ingests one or more `.agtrace` streams into one Async Graph.
///
/// \code
///   ag::IngestHub Hub(Opts);
///   size_t S0 = Hub.addFile("shard0.agtrace");
///   Suite.attach(Hub.builder(S0));           // optional live detectors
///   if (!Hub.run(&Err)) ...;
///   viz::toDot(Hub.graph(), Out);
/// \endcode
///
/// Single-shot: addFile() then one run(). For cluster traces, add files
/// in shard order — stream index is the merge's shard id.
class IngestHub {
public:
  explicit IngestHub(IngestOptions Opts = IngestOptions());
  ~IngestHub();

  IngestHub(const IngestHub &) = delete;
  IngestHub &operator=(const IngestHub &) = delete;

  /// Registers an input stream; returns its index. The stream's builder
  /// exists immediately, so observers can be attached before run().
  size_t addFile(const std::string &Path);

  size_t streams() const { return Streams.size(); }

  /// Stream \p I's builder (valid for the hub's lifetime).
  AsyncGBuilder &builder(size_t I);
  const AsyncGBuilder &builder(size_t I) const;

  /// Ingests every stream. Returns false with \p Err set on the first
  /// unrecoverable failure (stats up to that point remain valid).
  bool run(std::string *Err = nullptr);

  /// The result graph: the merged union for multi-stream runs, stream 0's
  /// builder graph for single-stream runs (no copy). Valid after run().
  const AsyncGraph &graph() const;

  const IngestStats &stats() const { return Stats; }

  /// Merge counters (all-zero for single-stream runs, which skip the
  /// union). Valid after run().
  const MergeStats &mergeStats() const { return Merged.stats(); }

private:
  struct Stream;
  struct DecodePool;

  /// Opens \p S and pre-sizes its graph from the scanned record count.
  /// Returns false with \p Err on unrecoverable failure.
  bool prepareStream(Stream &S, std::string *Err);
  /// Commits frames of \p S until the tick window closes or the stream
  /// drains. Returns false with \p Err on unrecoverable failure.
  bool pumpStream(Stream &S, std::string *Err);
  /// Scans new graph nodes of \p S for cross-loop handoff bookkeeping.
  void scanHandoffs(Stream &S);

  IngestOptions Opts;
  std::vector<std::unique_ptr<Stream>> Streams;
  std::unique_ptr<DecodePool> Pool;
  ShardedGraph Merged;
  IngestStats Stats;
  bool Ran = false;

  /// Sender CT trigger ids seen so far, across streams (live handoff
  /// tracking; value unused).
  FlatMap<jsrt::TriggerId, uint8_t> CtSeen;
  /// ClusterRecv schedule ids whose CT had not been seen yet when the
  /// delivery was counted.
  std::vector<jsrt::ScheduleId> ParkedHandoffs;
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_INGESTHUB_H
