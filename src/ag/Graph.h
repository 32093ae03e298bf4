//===- Graph.h - The Async Graph model --------------------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Async Graph (AG) of §IV: a time-oriented graph whose nodes belong to
/// event-loop ticks. Node kinds: Callback Registration (□ CR), Callback
/// Execution (○ CE), Callback Trigger (★ CT), Object Binding (△ OB).
/// Edge kinds: direct/causal (→), happens-in (○ → nodes executed during the
/// CE), registration binding (dashed CE ⇠ CR), and labeled relation edges
/// (OB ⇠ CR listener registrations, OB ⇠ OB promise chains and links).
///
/// Storage is built for the instrumentation hot path: event names and
/// edge labels are interned Symbols (4 bytes, no per-node heap traffic),
/// node labels are not stored at all but rendered from the node's parts at
/// output time (nodeLabel()), the id→node indices are open-addressing
/// FlatMaps, adjacency lists live in one shared pool instead of a
/// vector-per-node, and each tick's node list is a range of one tick pool.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_GRAPH_H
#define ASYNCG_AG_GRAPH_H

#include "ag/Warning.h"
#include "jsrt/ApiKind.h"
#include "jsrt/Ids.h"
#include "jsrt/PhaseKind.h"
#include "support/FlatMap.h"
#include "support/SourceLocation.h"
#include "support/SymbolTable.h"

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace asyncg {
namespace ag {

/// Async Graph node kinds (§IV-A).
enum class NodeKind {
  CR, ///< □ Callback Registration.
  CE, ///< ○ Callback Execution.
  CT, ///< ★ Callback Trigger (emit / resolve / reject).
  OB, ///< △ Object Binding (promise or emitter creation).
};

inline const char *nodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::CR:
    return "CR";
  case NodeKind::CE:
    return "CE";
  case NodeKind::CT:
    return "CT";
  case NodeKind::OB:
    return "OB";
  }
  return "?";
}

/// Async Graph edge kinds (§IV-A).
enum class EdgeKind {
  Causal,    ///< α → β: α causes the execution of β (CR→CE, CT→CE).
  HappensIn, ///< CE → node: the node happened during that CE.
  Binding,   ///< CE ⇠ CR (dashed): execution bound to its registration.
  Relation,  ///< dashed labeled edge: OB⇠CR (event name), OB⇠OB (then/link).
};

inline const char *edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::Causal:
    return "causal";
  case EdgeKind::HappensIn:
    return "happens-in";
  case EdgeKind::Binding:
    return "binding";
  case EdgeKind::Relation:
    return "relation";
  }
  return "?";
}

/// One graph node.
struct AgNode {
  NodeId Id = InvalidNode;
  NodeKind Kind = NodeKind::CR;
  /// 1-based tick index the node belongs to.
  uint32_t Tick = 0;
  SourceLocation Loc;
  jsrt::ApiKind Api = jsrt::ApiKind::None;
  /// CE only: the executed function's name. The display label is not
  /// stored: nodeLabel() renders it from Loc, Api, Event, Obj, IsPromise
  /// and this name.
  Symbol FuncName;
  /// CR: registered callback; CE: executed function.
  jsrt::FunctionId Func = 0;
  /// CR: its registration id; CE: the matched registration's id.
  jsrt::ScheduleId Sched = 0;
  /// OB: the object's id; CR/CT: the bound emitter/promise.
  jsrt::ObjectId Obj = 0;
  /// CT only: the trigger action id.
  jsrt::TriggerId Trigger = 0;
  /// Emitter event name (CR listener registrations, CT emits), interned.
  Symbol Event;
  /// True for internal-library nodes (rendered "*").
  bool Internal = false;
  /// OB only: promise (true) or emitter (false).
  bool IsPromise = false;
  /// CT only: whether the action had an effect (emit had listeners, settle
  /// changed state). False means dead emit / double settle.
  bool HadEffect = true;
  /// CR only: number of CE nodes bound to this registration so far.
  uint32_t ExecCount = 0;
  /// CR only: the registration was explicitly removed (removeListener,
  /// clearTimeout); removed registrations are not dead listeners.
  bool Removed = false;
  /// CR only: setTimeout delay in milliseconds.
  double TimeoutMs = 0;
  /// CR only (promise reactions): includes a rejection handler.
  bool HasRejectHandler = false;
  /// CR only (promise reactions): the derived promise.
  jsrt::ObjectId DerivedObj = 0;
  /// OB promise only: a reaction producing this promise returned undefined
  /// (missing-return candidate).
  bool ReactionReturnedUndefined = false;
};

/// Appends \p N's display label to \p Out: "L7: createServer",
/// "L9: on(foo)" (CR), "L15: emit(foo)", "L3: resolve" (CT), "L7: handler"
/// (CE), "L1: E5", "*: P7" (OB). Every serializer renders labels through
/// this, so the text exists only while output is being written.
void appendNodeLabel(const AgNode &N, std::string &Out);

/// appendNodeLabel() into a fresh string.
std::string nodeLabel(const AgNode &N);

/// One graph edge.
struct AgEdge {
  NodeId From = InvalidNode;
  NodeId To = InvalidNode;
  EdgeKind Kind = EdgeKind::Causal;
  Symbol Label;
};

/// One event-loop tick ("t3: io"; "t3: io @s2" on shard 2 of a merged
/// cluster graph).
struct AgTick {
  uint32_t Index = 0;
  jsrt::PhaseKind Phase = jsrt::PhaseKind::Main;
  /// Cluster shard the tick ran on. Only merged multi-loop graphs carry
  /// non-zero shards; it affects name() only when non-zero, so single-loop
  /// graphs render identically with or without the merge layer.
  uint32_t Shard = 0;
  /// The tick's node ids: the range [NodesBegin, NodesEnd) of the graph's
  /// tick pool, read through AsyncGraph::tickNodes(). The open tick is
  /// always the pool's tail, so adding a node appends one id.
  uint32_t NodesBegin = 0;
  uint32_t NodesEnd = 0;
  /// True once the tick's region was retired: its nodes were reclaimed and
  /// folded into the graph's RetiredSummary. Kept as a tombstone (Index
  /// still orders the vector for binary search) until compaction.
  bool Retired = false;

  bool empty() const { return NodesBegin == NodesEnd; }

  std::string name() const {
    std::string S("t");
    S += std::to_string(Index);
    S += ": ";
    S += jsrt::phaseKindName(Phase);
    if (Shard != 0) {
      S += " @s";
      S += std::to_string(Shard);
    }
    return S;
  }
};

namespace detail {
/// One cell of the shared adjacency pool: an edge index plus the pool
/// index of the next cell in the same per-node list.
struct AdjCell {
  uint32_t Edge;
  uint32_t Next;
};
constexpr uint32_t AdjNil = ~0u;
} // namespace detail

/// Lightweight view over one node's in- or out-edge indices, replacing the
/// per-node std::vector the adjacency used to copy into. Iterates the
/// shared pool in insertion order.
class EdgeRange {
public:
  class iterator {
  public:
    using value_type = uint32_t;
    iterator(const detail::AdjCell *Pool, uint32_t At)
        : Pool(Pool), At(At) {}
    uint32_t operator*() const { return Pool[At].Edge; }
    iterator &operator++() {
      At = Pool[At].Next;
      return *this;
    }
    bool operator==(const iterator &O) const { return At == O.At; }
    bool operator!=(const iterator &O) const { return At != O.At; }

  private:
    const detail::AdjCell *Pool;
    uint32_t At;
  };

  EdgeRange(const detail::AdjCell *Pool, uint32_t Head, uint32_t Count)
      : Pool(Pool), Head(Head), Count(Count) {}

  iterator begin() const { return iterator(Pool, Head); }
  iterator end() const { return iterator(Pool, detail::AdjNil); }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  uint32_t front() const { return Pool[Head].Edge; }

  /// O(I) chain walk; kept for tests and occasional positional access.
  uint32_t operator[](size_t I) const {
    uint32_t At = Head;
    while (I--)
      At = Pool[At].Next;
    return Pool[At].Edge;
  }

private:
  const detail::AdjCell *Pool;
  uint32_t Head;
  uint32_t Count;
};

/// Compact residue of retired regions: what the graph remembers about
/// reclaimed ticks once their nodes and edges are gone. A fixed set of
/// counters, so its size does not grow with the run.
struct RetiredSummary {
  uint64_t Ticks = 0;
  uint64_t Nodes = 0;
  uint64_t Edges = 0;
  /// Nodes by NodeKind (CR/CE/CT/OB).
  uint64_t ByKind[4] = {0, 0, 0, 0};
};

/// The Async Graph: ticks, nodes, edges, adjacency, and warnings.
class AsyncGraph {
public:
  /// \name Construction (used by the builder)
  /// @{

  /// Appends a committed (non-empty) tick whose nodes were added through
  /// addNode().
  void appendTick(const AgTick &T);

  /// Adds a node; assigns its id, appends it to \p T's range of the tick
  /// pool, and indexes it. \p T is the open tick (builder-managed): an
  /// empty \p T starts at the pool's tail, a non-empty one must end there.
  NodeId addNode(AgNode N, AgTick &T);

  /// Adds an edge and updates adjacency. Returns the edge's slot in
  /// edges() — a recycled freelist slot when regions have retired, so
  /// callers must not assume the new edge is edges().back().
  uint32_t addEdge(NodeId From, NodeId To, EdgeKind Kind,
                   Symbol Label = Symbol());

  /// Records a warning (deduplicated on (category, message, location) —
  /// deliberately not on the node id, which is recycled once regions
  /// retire). Returns true if newly added.
  bool addWarning(Warning W);

  /// Drops all non-sticky end-of-run warnings so a re-run of the final
  /// analyses (after another loop drain) can recompute them. \p Categories
  /// selects which. Sticky warnings (definitive verdicts) survive.
  void clearWarnings(const std::set<BugCategory> &Categories);

  /// Pre-sizes node/edge/adjacency storage for an expected graph size
  /// (builder-known workload hints); cheap to call more than once.
  /// \p ExpectedTicks additionally pre-sizes the tick storage (callers
  /// with an exact workload size, like the ingest hub's frame pre-scan;
  /// 0 leaves it growing on demand).
  void reserveHint(size_t ExpectedNodes, size_t ExpectedEdges,
                   size_t ExpectedTicks = 0);

  /// Retires the region rooted at tick \p Index: folds every node into the
  /// RetiredSummary, frees all incident edges and adjacency cells (an edge
  /// to a surviving node is unlinked from that node's list; one between
  /// two dying nodes is just freed), drops the id-index entries,
  /// invalidates warnings anchored to the dying nodes, and pushes node/edge
  /// slots onto freelists so live NodeIds stay stable while storage is
  /// recycled. A dead slot keeps its stale fields; only its Id is
  /// InvalidNode. The caller (the builder) guarantees the region has
  /// quiesced and that no tick is open: no pending registration, live
  /// listener/timer, or unreleased tracked object pins it. No-op if the
  /// tick is unknown or already retired.
  void retireTick(uint32_t Index);
  /// @}

  /// \name Merge support (ag/ShardedGraph.h)
  /// @{

  /// Renumbers the graph densely in tick order, as a graph rebuilt tick by
  /// tick would number it: retired tombstones and nodes outside every
  /// committed tick are dropped, live edges keep their storage order (an
  /// edge with a dropped endpoint goes too), the tick pool, adjacency, the
  /// four indices and the execution chains are rebuilt without freelists,
  /// and warnings are re-anchored. Tick indices and the RetiredSummary stay. A no-op
  /// after an O(nodes) check when nothing ever retired and every node
  /// already sits in a committed tick in id order, which is how the
  /// builder lays out a full graph.
  void compact();

  /// Appends \p Src (compacted first) after this graph's storage by moving
  /// its vectors: node, edge, tick-pool, adjacency-cell and execution-cell
  /// ids shift past this graph's, tick indices (of ticks, nodes and warnings) shift
  /// by \p TickBase, and every appended tick is tagged \p Shard. The four
  /// id indices are re-keyed: an id present in both graphs resolves to
  /// \p Src's node, and execution chains of a shared registration id are
  /// concatenated, this graph's executions first. Warnings go through
  /// addWarning()'s dedup. \p Src is left empty. The result is the graph
  /// a tick-by-tick copy of \p Src into this one would build.
  /// \returns how many of \p Src's warnings were new here.
  size_t append(AsyncGraph &&Src, uint32_t TickBase, uint32_t Shard);
  /// @}

  /// \name Queries
  /// @{
  const std::vector<AgTick> &ticks() const { return Ticks; }
  const std::vector<AgNode> &nodes() const { return Nodes; }
  const std::vector<AgEdge> &edges() const { return Edges; }
  const std::vector<Warning> &warnings() const { return Warnings; }

  /// The node ids of tick \p T, in insertion order.
  std::span<const NodeId> tickNodes(const AgTick &T) const {
    return {TickPool.data() + T.NodesBegin, TickPool.data() + T.NodesEnd};
  }
  /// Entries in the tick pool: the live ticks' nodes plus the ranges of
  /// retired tombstones not yet compacted away.
  size_t tickPoolSize() const { return TickPool.size(); }

  const AgNode &node(NodeId N) const { return Nodes[N]; }
  AgNode &node(NodeId N) { return Nodes[N]; }

  /// Live node count (slots minus freelisted ones). Equals nodes().size()
  /// until regions retire.
  size_t nodeCount() const { return Nodes.size() - FreeNodes.size(); }
  size_t liveEdgeCount() const { return Edges.size() - FreeEdges.size(); }
  size_t liveTickCount() const { return Ticks.size() - RetiredInVector; }

  /// True if the node slot was reclaimed by retirement (cold-path scans
  /// over nodes() must skip these).
  bool deadNode(NodeId N) const { return Nodes[N].Id == InvalidNode; }
  /// True if the edge slot was reclaimed by retirement.
  bool deadEdge(uint32_t E) const { return Edges[E].From == InvalidNode; }

  /// Aggregate residue of everything retired so far.
  const RetiredSummary &retired() const { return Summary; }

  /// Edge indices leaving / entering a node.
  EdgeRange outEdges(NodeId N) const {
    return EdgeRange(AdjPool.data(), Out[N].Head, Out[N].Count);
  }
  EdgeRange inEdges(NodeId N) const {
    return EdgeRange(AdjPool.data(), In[N].Head, In[N].Count);
  }
  const AgEdge &edge(uint32_t E) const { return Edges[E]; }

  /// OB node for an object id, or InvalidNode.
  NodeId objectNode(jsrt::ObjectId Obj) const;

  /// CR node for a registration id, or InvalidNode.
  NodeId registrationNode(jsrt::ScheduleId S) const;

  /// CT node for a trigger id, or InvalidNode.
  NodeId triggerNode(jsrt::TriggerId T) const;

  /// All CE nodes bound to a registration, in execution order.
  std::vector<NodeId> executionsOf(jsrt::ScheduleId S) const;

  /// Warnings of one category.
  std::vector<Warning> warningsOf(BugCategory C) const;

  bool hasWarning(BugCategory C) const;

  /// \returns promise OB nodes derived from \p Obj via then/catch/finally
  /// relation edges (the forward promise chain). When \p Label is
  /// non-null, only derivations through that API count (e.g. "then" for
  /// value-consuming derivations).
  std::vector<NodeId> derivedPromises(NodeId ObNode,
                                      const char *Label = nullptr) const;

  /// \returns the OB this promise was derived from, or InvalidNode.
  NodeId parentPromise(NodeId ObNode) const;

  /// Bytes held by the graph's own storage (nodes, edges, adjacency pool,
  /// indices, ticks, warnings). The shared symbol table is global and
  /// reported separately by symtab().memoryUsage().
  size_t memoryFootprint() const;
  /// @}

private:
  /// Per-node adjacency list head/tail into AdjPool.
  struct AdjList {
    uint32_t Head = detail::AdjNil;
    uint32_t Tail = detail::AdjNil;
    uint32_t Count = 0;
  };

  /// Per-registration execution chain head/tail into ExecPool.
  struct ExecChain {
    uint32_t Head = detail::AdjNil;
    uint32_t Tail = detail::AdjNil;
  };

  /// Records node \p N (already in its slot) in the id index of its kind.
  void indexNode(const AgNode &N);
  void pushAdj(AdjList &L, uint32_t E);
  /// Unlinks the cell for edge \p E from list \p L and freelists it.
  void unlinkAdj(AdjList &L, uint32_t E);
  /// Reclaims one node of retiring tick \p Tick: its adjacency cells and
  /// live edges, index entries and exec-chain cell, then the slot.
  void retireNode(NodeId N, uint32_t Tick);
  /// Drops retired tombstones from Ticks and their ranges from TickPool.
  void compactTicks();

  std::vector<AgTick> Ticks;
  /// Node ids of every tick, each tick a contiguous range (AgTick).
  std::vector<NodeId> TickPool;
  std::vector<AgNode> Nodes;
  std::vector<AgEdge> Edges;
  std::vector<AdjList> Out;
  std::vector<AdjList> In;
  /// Shared pool of adjacency cells (one per edge per direction).
  std::vector<detail::AdjCell> AdjPool;
  std::vector<Warning> Warnings;
  /// Dedup key: (category, message symbol, file symbol, line). The node id
  /// is deliberately excluded: ids are recycled across retired regions, and
  /// keying on the site keeps warning storage bounded by distinct sites.
  std::set<std::tuple<int, SymbolId, SymbolId, uint32_t>> WarningKeys;
  FlatMap<jsrt::ObjectId, NodeId> ObjIndex;
  FlatMap<jsrt::ScheduleId, NodeId> SchedIndex;
  FlatMap<jsrt::TriggerId, NodeId> TriggerIndex;
  /// CE nodes per registration id, chained through ExecPool in insertion
  /// order (replaces the std::multimap).
  FlatMap<jsrt::ScheduleId, ExecChain> ExecIndex;
  std::vector<detail::AdjCell> ExecPool;

  /// \name Retirement storage
  /// Freelists recycle slots so live ids stay stable; the summary is the
  /// bounded residue of everything reclaimed.
  /// @{
  std::vector<NodeId> FreeNodes;
  std::vector<uint32_t> FreeEdges;
  uint32_t AdjFree = detail::AdjNil;
  uint32_t ExecFree = detail::AdjNil;
  /// Tombstoned (retired) AgTick entries still in Ticks; the vector and the
  /// tick pool are compacted once they dominate.
  size_t RetiredInVector = 0;
  RetiredSummary Summary;
  /// @}
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_GRAPH_H
