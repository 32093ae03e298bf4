//===- Graph.cpp - The Async Graph model --------------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/Graph.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace asyncg;
using namespace asyncg::ag;

void ag::appendNodeLabel(const AgNode &N, std::string &Out) {
  N.Loc.appendShort(Out);
  Out += ": ";
  switch (N.Kind) {
  case NodeKind::CE:
    Out += N.FuncName.view();
    return;
  case NodeKind::OB:
    Out += N.IsPromise ? 'P' : 'E';
    Out += std::to_string(N.Obj);
    return;
  case NodeKind::CR:
  case NodeKind::CT:
    Out += jsrt::apiKindName(N.Api);
    // Registrations name their event when they have one; of the
    // triggers, emits always do and settles never.
    if (N.Kind == NodeKind::CR ? !N.Event.empty()
                               : N.Api == jsrt::ApiKind::EmitterEmit) {
      Out += '(';
      Out += N.Event.view();
      Out += ')';
    }
    return;
  }
}

std::string ag::nodeLabel(const AgNode &N) {
  std::string S;
  appendNodeLabel(N, S);
  return S;
}

void AsyncGraph::appendTick(const AgTick &T) {
  assert(!T.empty() && "only non-empty ticks are appended");
  assert(T.NodesEnd <= TickPool.size() && "tick range inside the pool");
  assert((Ticks.empty() || Ticks.back().Index < T.Index) &&
         "tick indices must be increasing");
  Ticks.push_back(T);
}

NodeId AsyncGraph::addNode(AgNode N, AgTick &T) {
  NodeId Id;
  if (!FreeNodes.empty()) {
    Id = FreeNodes.back();
    FreeNodes.pop_back();
  } else {
    Id = static_cast<NodeId>(Nodes.size());
    Nodes.emplace_back();
    Out.emplace_back();
    In.emplace_back();
  }
  N.Id = Id;
  N.Tick = T.Index;
  if (T.empty())
    T.NodesBegin = T.NodesEnd = static_cast<uint32_t>(TickPool.size());
  assert(T.NodesEnd == TickPool.size() && "the open tick is the pool's tail");
  TickPool.push_back(Id);
  ++T.NodesEnd;
  Nodes[Id] = std::move(N);
  indexNode(Nodes[Id]);
  return Id;
}

void AsyncGraph::indexNode(const AgNode &N) {
  switch (N.Kind) {
  case NodeKind::OB:
    ObjIndex[N.Obj] = N.Id;
    break;
  case NodeKind::CR:
    if (N.Sched != 0)
      SchedIndex[N.Sched] = N.Id;
    break;
  case NodeKind::CT:
    if (N.Trigger != 0)
      TriggerIndex[N.Trigger] = N.Id;
    break;
  case NodeKind::CE:
    if (N.Sched != 0) {
      ExecChain &C = ExecIndex[N.Sched];
      uint32_t Cell;
      if (ExecFree != detail::AdjNil) {
        Cell = ExecFree;
        ExecFree = ExecPool[Cell].Next;
        ExecPool[Cell] = detail::AdjCell{N.Id, detail::AdjNil};
      } else {
        Cell = static_cast<uint32_t>(ExecPool.size());
        ExecPool.push_back(detail::AdjCell{N.Id, detail::AdjNil});
      }
      if (C.Tail == detail::AdjNil)
        C.Head = Cell;
      else
        ExecPool[C.Tail].Next = Cell;
      C.Tail = Cell;
    }
    break;
  }
}

void AsyncGraph::pushAdj(AdjList &L, uint32_t E) {
  uint32_t Cell;
  if (AdjFree != detail::AdjNil) {
    Cell = AdjFree;
    AdjFree = AdjPool[Cell].Next;
    AdjPool[Cell] = detail::AdjCell{E, detail::AdjNil};
  } else {
    Cell = static_cast<uint32_t>(AdjPool.size());
    AdjPool.push_back(detail::AdjCell{E, detail::AdjNil});
  }
  if (L.Tail == detail::AdjNil)
    L.Head = Cell;
  else
    AdjPool[L.Tail].Next = Cell;
  L.Tail = Cell;
  ++L.Count;
}

void AsyncGraph::unlinkAdj(AdjList &L, uint32_t E) {
  uint32_t Prev = detail::AdjNil;
  for (uint32_t At = L.Head; At != detail::AdjNil; At = AdjPool[At].Next) {
    if (AdjPool[At].Edge != E) {
      Prev = At;
      continue;
    }
    uint32_t Next = AdjPool[At].Next;
    if (Prev == detail::AdjNil)
      L.Head = Next;
    else
      AdjPool[Prev].Next = Next;
    if (L.Tail == At)
      L.Tail = Prev;
    AdjPool[At].Next = AdjFree;
    AdjFree = At;
    --L.Count;
    return;
  }
  assert(false && "unlinkAdj: edge not in list");
}

uint32_t AsyncGraph::addEdge(NodeId From, NodeId To, EdgeKind Kind,
                             Symbol Label) {
  assert(From < Nodes.size() && To < Nodes.size() && "edge endpoints exist");
  assert(Nodes[From].Id == From && Nodes[To].Id == To &&
         "edge endpoints are live");
  uint32_t E;
  if (!FreeEdges.empty()) {
    E = FreeEdges.back();
    FreeEdges.pop_back();
    Edges[E] = AgEdge{From, To, Kind, Label};
  } else {
    E = static_cast<uint32_t>(Edges.size());
    Edges.push_back(AgEdge{From, To, Kind, Label});
  }
  pushAdj(Out[From], E);
  pushAdj(In[To], E);
  return E;
}

void AsyncGraph::reserveHint(size_t ExpectedNodes, size_t ExpectedEdges,
                             size_t ExpectedTicks) {
  if (ExpectedTicks)
    Ticks.reserve(ExpectedTicks);
  Nodes.reserve(ExpectedNodes);
  Out.reserve(ExpectedNodes);
  In.reserve(ExpectedNodes);
  Edges.reserve(ExpectedEdges);
  AdjPool.reserve(ExpectedEdges * 2);
  ObjIndex.reserve(ExpectedNodes / 4);
  SchedIndex.reserve(ExpectedNodes / 4);
  TriggerIndex.reserve(ExpectedNodes / 4);
  ExecIndex.reserve(ExpectedNodes / 4);
  ExecPool.reserve(ExpectedNodes / 4);
}

bool AsyncGraph::addWarning(Warning W) {
  auto Key = std::make_tuple(static_cast<int>(W.Category), W.Message.id(),
                             W.Loc.fileSymbol().id(), W.Loc.line());
  if (!WarningKeys.insert(Key).second)
    return false;
  Warnings.push_back(std::move(W));
  return true;
}

void AsyncGraph::clearWarnings(const std::set<BugCategory> &Categories) {
  std::vector<Warning> Kept;
  Kept.reserve(Warnings.size());
  for (Warning &W : Warnings) {
    if (!W.Sticky && Categories.count(W.Category)) {
      WarningKeys.erase(std::make_tuple(static_cast<int>(W.Category),
                                        W.Message.id(),
                                        W.Loc.fileSymbol().id(),
                                        W.Loc.line()));
      continue;
    }
    Kept.push_back(std::move(W));
  }
  Warnings = std::move(Kept);
}

void AsyncGraph::retireNode(NodeId N, uint32_t Tick) {
  AgNode &Node = Nodes[N];
  assert(Node.Id == N && "retiring a dead node");

  ++Summary.Nodes;
  ++Summary.ByKind[static_cast<int>(Node.Kind)];

  // Free every cell of both lists and every edge still live. The first
  // endpoint to reach an edge frees it: a surviving far endpoint has the
  // edge unlinked from its list, while a far endpoint of the same tick
  // dies too and will only free its own cell. Either way this node's lists
  // go whole, so no cell is unlinked from them.
  for (int Dir = 0; Dir != 2; ++Dir) {
    AdjList &L = Dir == 0 ? Out[N] : In[N];
    for (uint32_t At = L.Head, Next; At != detail::AdjNil; At = Next) {
      Next = AdjPool[At].Next;
      uint32_t E = AdjPool[At].Edge;
      AgEdge &Ed = Edges[E];
      if (Ed.From != InvalidNode) {
        NodeId Far = Dir == 0 ? Ed.To : Ed.From;
        if (Nodes[Far].Tick != Tick)
          unlinkAdj(Dir == 0 ? In[Far] : Out[Far], E);
        Ed.From = InvalidNode;
        Ed.To = InvalidNode;
        FreeEdges.push_back(E);
        ++Summary.Edges;
      }
      AdjPool[At].Next = AdjFree;
      AdjFree = At;
    }
    L = AdjList{};
  }

  switch (Node.Kind) {
  case NodeKind::OB:
    if (const NodeId *P = ObjIndex.find(Node.Obj); P && *P == N)
      ObjIndex.erase(Node.Obj);
    break;
  case NodeKind::CR:
    if (Node.Sched != 0)
      if (const NodeId *P = SchedIndex.find(Node.Sched); P && *P == N)
        SchedIndex.erase(Node.Sched);
    break;
  case NodeKind::CT:
    if (Node.Trigger != 0)
      if (const NodeId *P = TriggerIndex.find(Node.Trigger); P && *P == N)
        TriggerIndex.erase(Node.Trigger);
    break;
  case NodeKind::CE:
    if (Node.Sched != 0)
      if (ExecChain *C = ExecIndex.find(Node.Sched)) {
        uint32_t Prev = detail::AdjNil;
        for (uint32_t At = C->Head; At != detail::AdjNil;
             At = ExecPool[At].Next) {
          if (ExecPool[At].Edge != N) {
            Prev = At;
            continue;
          }
          uint32_t Next = ExecPool[At].Next;
          if (Prev == detail::AdjNil)
            C->Head = Next;
          else
            ExecPool[Prev].Next = Next;
          if (C->Tail == At)
            C->Tail = Prev;
          ExecPool[At].Next = ExecFree;
          ExecFree = At;
          break;
        }
        if (C->Head == detail::AdjNil)
          ExecIndex.erase(Node.Sched);
      }
    break;
  }

  Node.Id = InvalidNode; // the dead-slot marker; the other fields go stale
  FreeNodes.push_back(N);
}

void AsyncGraph::retireTick(uint32_t Index) {
  auto It = std::lower_bound(
      Ticks.begin(), Ticks.end(), Index,
      [](const AgTick &T, uint32_t I) { return T.Index < I; });
  if (It == Ticks.end() || It->Index != Index || It->Retired)
    return;
  AgTick &T = *It;

  // Warnings anchored to dying nodes lose their node reference (the id is
  // about to be recycled); category/location/message — everything the
  // warning report prints — stay.
  for (Warning &W : Warnings)
    if (W.Node != InvalidNode && W.Node < Nodes.size() &&
        Nodes[W.Node].Id == W.Node && Nodes[W.Node].Tick == Index)
      W.Node = InvalidNode;

  for (NodeId N : tickNodes(T))
    retireNode(N, Index);
  // A tombstone lists no nodes; its dead range leaves the pool at the
  // next compaction.
  T.NodesBegin = T.NodesEnd;
  T.Retired = true;
  ++Summary.Ticks;
  ++RetiredInVector;

  // Compact the tick vector and the pool once tombstones dominate, so
  // both stay O(live window).
  if (RetiredInVector > 64 && RetiredInVector * 2 > Ticks.size())
    compactTicks();
}

void AsyncGraph::compactTicks() {
  assert((Ticks.empty() || Ticks.back().NodesEnd == TickPool.size()) &&
         "no open tick may hold pool entries while ticks compact");
  uint32_t At = 0;
  size_t Kept = 0;
  for (AgTick &T : Ticks) {
    if (T.Retired)
      continue;
    const uint32_t Size = T.NodesEnd - T.NodesBegin;
    if (At != T.NodesBegin)
      std::copy(TickPool.begin() + T.NodesBegin,
                TickPool.begin() + T.NodesEnd, TickPool.begin() + At);
    T.NodesBegin = At;
    T.NodesEnd = At += Size;
    Ticks[Kept++] = T;
  }
  Ticks.resize(Kept);
  TickPool.resize(At);
  RetiredInVector = 0;
}

void AsyncGraph::compact() {
  if (Summary.Ticks == 0) {
    // The builder's layout: the ticks tile the pool in order and the pool
    // lists every node id in order.
    uint32_t Expect = 0;
    bool InOrder = true;
    for (const AgTick &T : Ticks) {
      InOrder = InOrder && T.NodesBegin == Expect;
      Expect = T.NodesEnd;
    }
    for (uint32_t I = 0; InOrder && I != TickPool.size(); ++I)
      InOrder = TickPool[I] == I;
    if (InOrder && Expect == TickPool.size() && Expect == Nodes.size())
      return;
  }

  // Move the nodes of every live tick, in tick order, into dense slots;
  // the new pool is then the identity, tiled by the kept ticks.
  std::vector<NodeId> Remap(Nodes.size(), InvalidNode);
  std::vector<AgNode> Live;
  Live.reserve(nodeCount());
  std::vector<AgTick> Kept;
  Kept.reserve(liveTickCount());
  for (AgTick &T : Ticks) {
    if (T.Retired)
      continue;
    const uint32_t Begin = static_cast<uint32_t>(Live.size());
    for (NodeId N : tickNodes(T)) {
      const NodeId New = static_cast<NodeId>(Live.size());
      Live.push_back(std::move(Nodes[N]));
      Live.back().Id = New;
      Remap[N] = New;
    }
    T.NodesBegin = Begin;
    T.NodesEnd = static_cast<uint32_t>(Live.size());
    Kept.push_back(T);
  }
  Ticks = std::move(Kept);
  Nodes = std::move(Live);
  TickPool.resize(Nodes.size());
  for (NodeId I = 0; I != Nodes.size(); ++I)
    TickPool[I] = I;
  RetiredInVector = 0;
  FreeNodes.clear();

  // Rebuild everything keyed by node or edge slot from scratch.
  ObjIndex.clear();
  SchedIndex.clear();
  TriggerIndex.clear();
  ExecIndex.clear();
  ExecPool.clear();
  ExecFree = detail::AdjNil;
  for (const AgNode &N : Nodes)
    indexNode(N);

  std::vector<AgEdge> OldEdges = std::move(Edges);
  Edges.clear();
  Edges.reserve(OldEdges.size() - FreeEdges.size());
  FreeEdges.clear();
  AdjPool.clear();
  AdjFree = detail::AdjNil;
  Out.assign(Nodes.size(), AdjList{});
  In.assign(Nodes.size(), AdjList{});
  for (const AgEdge &E : OldEdges) {
    if (E.From == InvalidNode)
      continue;
    const NodeId From = Remap[E.From], To = Remap[E.To];
    if (From != InvalidNode && To != InvalidNode)
      addEdge(From, To, E.Kind, E.Label);
  }

  for (Warning &W : Warnings)
    W.Node = W.Node < Remap.size() ? Remap[W.Node] : InvalidNode;
}

size_t AsyncGraph::append(AsyncGraph &&Src, uint32_t TickBase,
                          uint32_t Shard) {
  assert(&Src != this && "appending a graph to itself");
  Src.compact();
  assert((Ticks.empty() || Src.Ticks.empty() ||
          Ticks.back().Index < TickBase + Src.Ticks.front().Index) &&
         "appended ticks must follow this graph's");

  const NodeId NodeBase = static_cast<NodeId>(Nodes.size());
  const uint32_t PoolBase = static_cast<uint32_t>(TickPool.size());
  const uint32_t EdgeBase = static_cast<uint32_t>(Edges.size());
  const uint32_t AdjBase = static_cast<uint32_t>(AdjPool.size());
  const uint32_t ExecBase = static_cast<uint32_t>(ExecPool.size());
  const size_t SrcNodes = Src.Nodes.size();
  auto Cell = [](uint32_t C, uint32_t Base) {
    return C == detail::AdjNil ? C : C + Base;
  };

  // Shift Src's ids in place. An empty destination (the first shard of a
  // merge) moves in with every offset zero, so only the shard tag is set.
  const bool Shift = NodeBase != 0 || TickBase != 0;
  for (AgTick &T : Src.Ticks) {
    T.Index += TickBase;
    T.Shard = Shard;
    T.NodesBegin += PoolBase;
    T.NodesEnd += PoolBase;
  }
  if (Shift) {
    for (NodeId &N : Src.TickPool)
      N += NodeBase;
    for (AgNode &N : Src.Nodes) {
      N.Id += NodeBase;
      N.Tick += TickBase;
    }
    for (AgEdge &E : Src.Edges) {
      E.From += NodeBase;
      E.To += NodeBase;
    }
    for (std::vector<AdjList> *Lists : {&Src.Out, &Src.In})
      for (AdjList &L : *Lists) {
        L.Head = Cell(L.Head, AdjBase);
        L.Tail = Cell(L.Tail, AdjBase);
      }
    for (detail::AdjCell &C : Src.AdjPool) {
      C.Edge += EdgeBase;
      C.Next = Cell(C.Next, AdjBase);
    }
    for (detail::AdjCell &C : Src.ExecPool) {
      C.Edge += NodeBase;
      C.Next = Cell(C.Next, ExecBase);
    }
  }

  auto Splice = [](auto &Dst, auto &From) {
    if (Dst.empty())
      Dst = std::move(From);
    else
      Dst.insert(Dst.end(), std::make_move_iterator(From.begin()),
                 std::make_move_iterator(From.end()));
  };
  Splice(Ticks, Src.Ticks);
  Splice(TickPool, Src.TickPool);
  Splice(Nodes, Src.Nodes);
  Splice(Edges, Src.Edges);
  Splice(Out, Src.Out);
  Splice(In, Src.In);
  Splice(AdjPool, Src.AdjPool);
  Splice(ExecPool, Src.ExecPool);

  auto Rekey = [NodeBase](auto &Dst, auto &From) {
    if (Dst.empty() && NodeBase == 0) {
      Dst = std::move(From);
      return;
    }
    Dst.reserve(Dst.size() + From.size());
    for (auto &[Key, Node] : From)
      Dst[Key] = Node + NodeBase;
  };
  Rekey(ObjIndex, Src.ObjIndex);
  Rekey(SchedIndex, Src.SchedIndex);
  Rekey(TriggerIndex, Src.TriggerIndex);
  if (ExecIndex.empty() && ExecBase == 0) {
    ExecIndex = std::move(Src.ExecIndex);
  } else {
    ExecIndex.reserve(ExecIndex.size() + Src.ExecIndex.size());
    for (auto &[Sched, C] : Src.ExecIndex) {
      const ExecChain Moved{Cell(C.Head, ExecBase), Cell(C.Tail, ExecBase)};
      if (ExecChain *Have = ExecIndex.find(Sched)) {
        ExecPool[Have->Tail].Next = Moved.Head;
        Have->Tail = Moved.Tail;
      } else {
        ExecIndex[Sched] = Moved;
      }
    }
  }

  size_t Added = 0;
  for (Warning &W : Src.Warnings) {
    W.Node = W.Node < SrcNodes ? W.Node + NodeBase : InvalidNode;
    if (W.Tick != 0)
      W.Tick += TickBase;
    Added += addWarning(std::move(W));
  }
  Src = AsyncGraph();
  return Added;
}

NodeId AsyncGraph::objectNode(jsrt::ObjectId Obj) const {
  const NodeId *N = ObjIndex.find(Obj);
  return N ? *N : InvalidNode;
}

NodeId AsyncGraph::registrationNode(jsrt::ScheduleId S) const {
  const NodeId *N = SchedIndex.find(S);
  return N ? *N : InvalidNode;
}

NodeId AsyncGraph::triggerNode(jsrt::TriggerId T) const {
  const NodeId *N = TriggerIndex.find(T);
  return N ? *N : InvalidNode;
}

std::vector<NodeId> AsyncGraph::executionsOf(jsrt::ScheduleId S) const {
  std::vector<NodeId> R;
  const ExecChain *C = ExecIndex.find(S);
  if (!C)
    return R;
  for (uint32_t At = C->Head; At != detail::AdjNil; At = ExecPool[At].Next)
    R.push_back(ExecPool[At].Edge);
  return R;
}

std::vector<Warning> AsyncGraph::warningsOf(BugCategory C) const {
  std::vector<Warning> R;
  for (const Warning &W : Warnings)
    if (W.Category == C)
      R.push_back(W);
  return R;
}

bool AsyncGraph::hasWarning(BugCategory C) const {
  return std::any_of(Warnings.begin(), Warnings.end(),
                     [C](const Warning &W) { return W.Category == C; });
}

/// True for the relation labels that derive one promise from another
/// through a reaction (combinator input edges and adoption links are not
/// derivations). Compared by interned id: the three symbols are created
/// once.
static bool isDerivationLabel(Symbol L) {
  static const Symbol Then("then"), Catch("catch"), Finally("finally");
  return L == Then || L == Catch || L == Finally;
}

std::vector<NodeId> AsyncGraph::derivedPromises(NodeId ObNode,
                                                const char *Label) const {
  std::vector<NodeId> R;
  assert(ObNode < Nodes.size() && Nodes[ObNode].Kind == NodeKind::OB &&
         "derivedPromises on a non-OB node");
  for (uint32_t E : outEdges(ObNode)) {
    const AgEdge &Edge = Edges[E];
    if (Edge.Kind != EdgeKind::Relation || !isDerivationLabel(Edge.Label))
      continue;
    if (Label && Edge.Label != std::string_view(Label))
      continue;
    const AgNode &To = Nodes[Edge.To];
    if (To.Kind == NodeKind::OB && To.IsPromise)
      R.push_back(Edge.To);
  }
  return R;
}

NodeId AsyncGraph::parentPromise(NodeId ObNode) const {
  assert(ObNode < Nodes.size() && Nodes[ObNode].Kind == NodeKind::OB &&
         "parentPromise on a non-OB node");
  for (uint32_t E : inEdges(ObNode)) {
    const AgEdge &Edge = Edges[E];
    if (Edge.Kind != EdgeKind::Relation || !isDerivationLabel(Edge.Label))
      continue;
    const AgNode &From = Nodes[Edge.From];
    if (From.Kind == NodeKind::OB && From.IsPromise)
      return Edge.From;
  }
  return InvalidNode;
}

size_t AsyncGraph::memoryFootprint() const {
  size_t Bytes = 0;
  Bytes += Nodes.capacity() * sizeof(AgNode);
  Bytes += Edges.capacity() * sizeof(AgEdge);
  Bytes += Out.capacity() * sizeof(AdjList);
  Bytes += In.capacity() * sizeof(AdjList);
  Bytes += AdjPool.capacity() * sizeof(detail::AdjCell);
  Bytes += ExecPool.capacity() * sizeof(detail::AdjCell);
  Bytes += ObjIndex.memoryUsage() + SchedIndex.memoryUsage() +
           TriggerIndex.memoryUsage() + ExecIndex.memoryUsage();
  Bytes += Ticks.capacity() * sizeof(AgTick);
  Bytes += TickPool.capacity() * sizeof(NodeId);
  Bytes += Warnings.capacity() * sizeof(Warning);
  // Warning dedup keys: red-black tree nodes (key + 3 pointers + color).
  Bytes += WarningKeys.size() *
           (sizeof(std::tuple<int, SymbolId, SymbolId, uint32_t>) +
            4 * sizeof(void *));
  Bytes += FreeNodes.capacity() * sizeof(NodeId);
  Bytes += FreeEdges.capacity() * sizeof(uint32_t);
  return Bytes;
}
