//===- ShardedGraph.cpp - Cross-loop Async Graph merge ------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/ShardedGraph.h"

#include <cassert>

using namespace asyncg;
using namespace asyncg::ag;

void ShardedGraph::mergeShard(AsyncGraph &&In, uint32_t Shard) {
  assert(Shard >= Stats.Shards && "merge shards in increasing id order");
  Stats.Shards = Shard + 1;
  for (const AgTick &T : In.ticks())
    Stats.SkippedRetiredTicks += T.Retired;

  // Tick indices are renumbered shard-major: shard s's ticks keep their
  // loop-local indices shifted past everything merged so far. With one
  // shard the shift is zero and the graph moves in unchanged.
  const size_t Ticks0 = G.ticks().size();
  const size_t Nodes0 = G.nodes().size();
  const size_t Edges0 = G.edges().size();
  Stats.Warnings += G.append(std::move(In), IndexBase, Shard);
  Stats.Ticks += G.ticks().size() - Ticks0;
  Stats.Nodes += G.nodes().size() - Nodes0;
  Stats.Edges += G.edges().size() - Edges0;
  if (G.ticks().size() > Ticks0)
    IndexBase = G.ticks().back().Index;
}

const MergeStats &ShardedGraph::finishMerge() {
  // Join cross-loop handoffs: every delivery execution (a top-level CE
  // whose Api is ClusterRecv and whose Sched is the sender-minted handoff
  // id) gains a Causal edge from the sending shard's CT. Loop-local CEs
  // never carry ClusterRecv, so single-loop graphs are untouched.
  static const Symbol XLoop("xloop");
  for (const AgNode &N : G.nodes()) {
    if (N.Id == InvalidNode || N.Kind != NodeKind::CE ||
        N.Api != jsrt::ApiKind::ClusterRecv || N.Sched == 0)
      continue;
    NodeId Ct = G.triggerNode(N.Sched);
    if (Ct == InvalidNode) {
      ++Stats.UnresolvedHandoffs;
      continue;
    }
    G.addEdge(Ct, N.Id, EdgeKind::Causal, XLoop);
    ++Stats.CrossLoopEdges;
  }
  return Stats;
}

MergeStats ShardedGraph::build(const std::vector<const AsyncGraph *> &Shards) {
  assert(G.ticks().empty() && "ShardedGraph is single-shot");
  Stats = MergeStats();
  IndexBase = 0;
  for (uint32_t S = 0; S != Shards.size(); ++S)
    mergeShard(AsyncGraph(*Shards[S]), S);
  return finishMerge();
}
