//===- ShardedGraph.h - Cross-loop Async Graph merge ------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster-mode merge layer: each event loop of a sharded runtime
/// builds its own AsyncGraph lock-free (all runtime ids carry the shard in
/// their top bits, so the per-shard graphs never collide), and after the
/// loops join, a ShardedGraph unions them into one AsyncGraph that the
/// detectors' results, queries, and DOT rendering operate on.
///
/// What the merge adds beyond the union: cross-loop causal edges. A
/// cluster send fires a CT on the sending shard carrying a freshly minted
/// handoff id; the delivery runs as a top-level tick on the receiving
/// shard whose CE records that foreign id as its Sched (no local
/// registration matches it). After the union both ends live in one graph,
/// and every ClusterRecv CE is joined to the CT owning its handoff id with
/// a Causal edge labeled "xloop".
///
/// What the merge does NOT do: order ticks across shards. Per-shard
/// virtual clocks are independent (like wall clocks of separate cores), so
/// merged ticks are renumbered shard-major — all of shard 0's ticks, then
/// shard 1's, each block keeping its loop-local order, which is the only
/// order that exists. Cross-shard ordering claims come solely from the
/// "xloop" edges. A single-shard merge is an exact copy: same node ids,
/// same tick names, byte-identical DOT.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_SHARDEDGRAPH_H
#define ASYNCG_AG_SHARDEDGRAPH_H

#include "ag/Graph.h"

#include <cstdint>
#include <vector>

namespace asyncg {
namespace ag {

/// Counters describing one merge (for reports and tests).
struct MergeStats {
  uint32_t Shards = 0;
  uint64_t Ticks = 0;
  uint64_t Nodes = 0;
  uint64_t Edges = 0;
  uint64_t Warnings = 0;
  /// "xloop" Causal edges added by the handoff join.
  uint64_t CrossLoopEdges = 0;
  /// ClusterRecv executions whose sender CT was not in the union (its
  /// region retired before the merge, or the trace was truncated).
  uint64_t UnresolvedHandoffs = 0;
  /// Retired (tombstoned) per-shard ticks the union skipped; their content
  /// lives only in each shard's RetiredSummary.
  uint64_t SkippedRetiredTicks = 0;
};

/// Merges per-shard Async Graphs into one graph. Shards are appended by
/// moving their storage (AsyncGraph::append()): node, edge, tick and pool
/// ids shift by offsets, the first shard moves in outright, and the four
/// id indices are re-keyed. A shard graph with retired slots is compacted
/// in tick order first, so the union is always dense. Two entry points
/// share the append:
///
///  - mergeShard()/finishMerge(): shards are moved in one at a time, in
///    shard-id order; finishMerge() runs the handoff join over whatever
///    has been merged. The ingest hub (ag/IngestHub.h) and the cluster
///    harness merge their per-stream and per-loop graphs this way.
///  - build() is the single-shot form over const graphs: it copies each
///    input and appends the copy, leaving the inputs untouched.
///
/// Either way the merged graph is the one a tick-by-tick copy of every
/// shard, in shard order, would build: tick renumbering is shard-major.
class ShardedGraph {
public:
  /// Unions \p Shards (index = shard id, so element 0 is loop 0) into the
  /// merged graph and joins cross-loop handoffs. Node ids, tick indices,
  /// and warning anchors are remapped; the inputs are not modified.
  MergeStats build(const std::vector<const AsyncGraph *> &Shards);

  /// Appends \p In as shard \p Shard by moving its storage; \p In is left
  /// empty. Call in increasing shard order (ids name the merge blocks:
  /// renumbering is shard-major).
  void mergeShard(AsyncGraph &&In, uint32_t Shard);

  /// Joins cross-loop handoffs over everything merged so far and returns
  /// the final stats. Call once, after the last mergeShard().
  const MergeStats &finishMerge();

  const AsyncGraph &merged() const { return G; }
  AsyncGraph &merged() { return G; }
  const MergeStats &stats() const { return Stats; }

private:
  AsyncGraph G;
  MergeStats Stats;
  /// Tick-renumbering high-water mark across incremental merges.
  uint32_t IndexBase = 0;
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_SHARDEDGRAPH_H
