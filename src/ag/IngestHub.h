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
/// builder — applies frames in file order. Streams, in turn, share no
/// state until their graphs are merged. The hub builds on both:
///
///  - Pre-scan. scanV4Frames() locates every frame of the mapped record
///    section up front (O(frames), header reads only), which both feeds
///    the decode scheduler and tells the hub the exact record count before
///    the first event fires, so graph storage is pre-sized once instead of
///    grown through reallocation.
///
///  - Stream workers. With several input streams (e.g. one per cluster
///    shard), min(Jobs, streams) threads — the calling thread counts as
///    one — each take whole streams from a shared counter, in stream
///    order, and drain them through the engine replayTrace() runs on
///    (instr::TraceStream's inline apply loop: frames decoded straight
///    from the mapping, next frame prefetched) into the stream's own
///    builder and observers. Streams
///    share nothing but the thread-safe symbol table, so each graph is
///    exactly what replayTrace() builds from its stream.
///
///  - Pipelined decode. A single stream with Jobs >= 2 runs Jobs - 1
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
///  - Move merge. Once every stream has drained, the per-stream graphs
///    are moved, in stream order, into ShardedGraph's mergeShard() and
///    joined by finishMerge(): storage is appended with shifted ids, not
///    re-inserted node by node. That is the same shard-major renumbering
///    the batch merge performs, so the merged graph is byte-identical to
///    ShardedGraph::build() over the same graphs.
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
  /// Threads working on the ingest, the calling thread included. 1
  /// ingests inline, one stream after another (the right setting on
  /// single-core hosts). N >= 2 drains up to N streams at once, one thread
  /// per stream; a single stream instead gets N - 1 frame-decode workers
  /// beside its committing thread.
  unsigned Jobs = 1;
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
  /// Stream turns taken: each stream drains in one turn, so this is the
  /// number of streams ingested.
  uint64_t Windows = 0;
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

  /// Stream \p I's builder (valid for the hub's lifetime). Observers
  /// attached to it run on whichever thread drains the stream, one thread
  /// at a time. After a multi-stream run(), the stream's graph has moved
  /// into graph(), and builder(I).graph() is empty.
  AsyncGBuilder &builder(size_t I);
  const AsyncGBuilder &builder(size_t I) const;

  /// Ingests every stream, then merges multi-stream runs. Returns false
  /// with \p Err set when a stream fails unrecoverably (the lowest stream
  /// index among failures; streams not yet started are skipped). Stats of
  /// the streams ingested remain valid.
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

  /// Opens, pre-sizes and drains \p S, then records its stats. Returns
  /// false with \p Err on unrecoverable failure.
  bool ingestStream(Stream &S, std::string *Err);

  IngestOptions Opts;
  std::vector<std::unique_ptr<Stream>> Streams;
  ShardedGraph Merged;
  IngestStats Stats;
  bool Ran = false;
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_INGESTHUB_H
