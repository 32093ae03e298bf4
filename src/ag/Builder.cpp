//===- Builder.cpp - AsyncG: builds the Async Graph at runtime ---------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/Builder.h"

#include "ag/Templates.h"

#include <algorithm>
#include <cassert>

using namespace asyncg;
using namespace asyncg::ag;
using namespace asyncg::jsrt;

GraphObserver::~GraphObserver() = default;

AsyncGBuilder::AsyncGBuilder(BuilderConfig Config) : Config(Config) {
  if (Config.BuildGraph)
    Graph.reserveHint(Config.ExpectedNodes, Config.ExpectedEdges);
}

AsyncGBuilder::~AsyncGBuilder() = default;

NodeId AsyncGBuilder::currentCe() const {
  for (auto It = CeStack.rbegin(), E = CeStack.rend(); It != E; ++It)
    if (*It != InvalidNode)
      return *It;
  return InvalidNode;
}

bool AsyncGBuilder::filtered(ApiKind Api) const {
  if (!Config.TrackPromises && isPromiseApi(Api))
    return true;
  if (!Config.TrackEmitters &&
      (isEmitterRegistrationApi(Api) || Api == ApiKind::EmitterEmit ||
       Api == ApiKind::EmitterRemoveListener ||
       Api == ApiKind::EmitterRemoveAll))
    return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Ticks (Algorithm 1)
//===----------------------------------------------------------------------===//

void AsyncGBuilder::openTick(PhaseKind Phase) {
  commitTick();
  // The new tick's node range starts wherever the tick pool ends when its
  // first node arrives (AsyncGraph::addNode).
  CurTick.NodesBegin = CurTick.NodesEnd = 0;
  CurTick.Index = static_cast<uint32_t>(++TickCounter);
  CurTick.Phase = Phase;
  TickOpen = true;
  if (Config.Retire) {
    if (FreeRegions.empty()) {
      CurRegion = static_cast<uint32_t>(Regions.size());
      Regions.emplace_back();
    } else {
      CurRegion = FreeRegions.back();
      FreeRegions.pop_back();
    }
    Regions[CurRegion] = Region{CurTick.Index, 0, 0};
  }
  for (GraphObserver *O : Observers)
    O->onTickStart(*this, CurTick);
}

void AsyncGBuilder::commitTick() {
  if (!TickOpen)
    return;
  TickOpen = false;
  if (CurTick.empty()) {
    // Obligations are only taken on nodes, so an empty tick has none.
    if (Config.Retire)
      FreeRegions.push_back(CurRegion);
    return;
  }
  Graph.appendTick(CurTick);
  ++CommittedCount;
  if (Config.Retire) {
    Region &R = Regions[CurRegion];
    R.Ordinal = CommittedCount;
    // A tick with no obligations quiesces at commit; otherwise the last
    // unpin queues it (see unpinRegion).
    if (R.Pins == 0)
      enqueueQuiesced(CurRegion);
    runRetireScan();
  }
}

//===----------------------------------------------------------------------===//
// Tick-epoch retirement
//===----------------------------------------------------------------------===//

uint32_t AsyncGBuilder::pinRegion() {
  if (Config.Retire)
    ++Regions[CurRegion].Pins;
  return CurRegion;
}

void AsyncGBuilder::unpinRegion(uint32_t Slot) {
  if (!Config.Retire)
    return;
  Region &R = Regions[Slot];
  assert(R.Pins > 0 && "unpin without a matching pin");
  // A still-open tick (no ordinal yet) quiesces at commitTick instead;
  // obligations can only be added while a tick is open.
  if (--R.Pins == 0 && R.Ordinal != 0)
    enqueueQuiesced(Slot);
}

void AsyncGBuilder::enqueueQuiesced(uint32_t Slot) {
  // A commit appends; a late unpin of an older region walks back over the
  // few newer regions still waiting, which the scans keep to about the
  // retain window.
  const uint64_t Ord = Regions[Slot].Ordinal;
  size_t At = Quiesced.size();
  while (At != 0 && Regions[Quiesced[At - 1].Slot].Ordinal > Ord)
    --At;
  Quiesced.insert(Quiesced.begin() + static_cast<ptrdiff_t>(At),
                  QuiescedRegion{++QuiesceCount, Slot});
}

void AsyncGBuilder::runRetireScan() {
  if (!Config.Retire || Quiesced.empty())
    return;
  // Clamped to 1 so the newest committed tick is never retired (its
  // ordinal equals CommittedCount).
  const uint64_t Window = Config.RetainWindow ? Config.RetainWindow : 1;
  size_t Due = 0;
  while (Due != Quiesced.size() &&
         Regions[Quiesced[Due].Slot].Ordinal + Window <= CommittedCount)
    ++Due; // everything after Due is inside the retain window
  // Regions due together retire in the order they quiesced (usually there
  // is one), which fixes the order their slots are recycled in.
  if (Due > 1)
    std::sort(Quiesced.begin(), Quiesced.begin() + static_cast<ptrdiff_t>(Due),
              [](const QuiescedRegion &A, const QuiescedRegion &B) {
                return A.Seq < B.Seq;
              });
  for (size_t I = 0; I != Due; ++I) {
    const uint32_t Slot = Quiesced[I].Slot;
    const uint32_t T = Regions[Slot].Tick;
    for (GraphObserver *O : Observers)
      O->onRegionRetire(*this, T);
    Graph.retireTick(T);
    FreeRegions.push_back(Slot);
  }
  Quiesced.erase(Quiesced.begin(),
                 Quiesced.begin() + static_cast<ptrdiff_t>(Due));
}

//===----------------------------------------------------------------------===//
// Pending registrations
//===----------------------------------------------------------------------===//

void AsyncGBuilder::addPending(FunctionId Fn, const PendingReg &Reg) {
  uint32_t C;
  if (PendingFree != detail::AdjNil) {
    C = PendingFree;
    PendingFree = PendingPool[C].FnNext;
  } else {
    C = static_cast<uint32_t>(PendingPool.size());
    PendingPool.emplace_back();
  }
  PendingCell &Cell = PendingPool[C];
  Cell = PendingCell();
  Cell.Reg = Reg;
  Cell.Fn = Fn;

  PendingChain &F = Pending[Fn];
  Cell.FnPrev = F.Tail;
  if (F.Tail == detail::AdjNil)
    F.Head = C;
  else
    PendingPool[F.Tail].FnNext = C;
  F.Tail = C;

  if (Reg.BoundObj != 0) {
    PendingChain &O = PendingByObj[Reg.BoundObj];
    Cell.ObjPrev = O.Tail;
    if (O.Tail == detail::AdjNil)
      O.Head = C;
    else
      PendingPool[O.Tail].ObjNext = C;
    O.Tail = C;
  }
}

void AsyncGBuilder::erasePending(uint32_t C) {
  PendingCell &Cell = PendingPool[C];
  // Unlinks the cell from one chain; an emptied chain's key is dropped so
  // both maps stay proportional to the genuinely pending registrations.
  auto Unlink = [&](auto &Map, auto Key, uint32_t PendingCell::*Prev,
                    uint32_t PendingCell::*Next) {
    PendingChain *Ch = Map.find(Key);
    assert(Ch && "pending cell without its chain");
    const uint32_t P = Cell.*Prev, N = Cell.*Next;
    if (P == detail::AdjNil && N == detail::AdjNil) {
      Map.erase(Key);
      return;
    }
    (P == detail::AdjNil ? Ch->Head : PendingPool[P].*Next) = N;
    (N == detail::AdjNil ? Ch->Tail : PendingPool[N].*Prev) = P;
  };
  Unlink(Pending, Cell.Fn, &PendingCell::FnPrev, &PendingCell::FnNext);
  if (Cell.Reg.BoundObj != 0)
    Unlink(PendingByObj, Cell.Reg.BoundObj, &PendingCell::ObjPrev,
           &PendingCell::ObjNext);
  Cell.FnNext = PendingFree;
  PendingFree = C;
}

void AsyncGBuilder::onBatchBoundary() {
  // Between pipeline ring drains / replay chunks, on the thread driving
  // this builder. Never retire with a tick open: its nodes still gain
  // edges to recent regions.
  if (Config.Retire && !TickOpen)
    runRetireScan();
}

void AsyncGBuilder::ensureTick(PhaseKind Phase) {
  if (!TickOpen)
    openTick(Phase);
}

//===----------------------------------------------------------------------===//
// Node/edge plumbing
//===----------------------------------------------------------------------===//

NodeId AsyncGBuilder::addNode(AgNode N) {
  ensureTick(CurTick.Index == 0 ? PhaseKind::Main : CurTick.Phase);
  NodeId Enclosing = currentCe();
  NodeId Id = Graph.addNode(std::move(N), CurTick);
  // The "happens-in" edge: the enclosing CE to any node created during it.
  if (Enclosing != InvalidNode)
    addEdge(Enclosing, Id, EdgeKind::HappensIn);
  for (GraphObserver *O : Observers)
    O->onNodeAdded(*this, Id);
  return Id;
}

void AsyncGBuilder::addEdge(NodeId From, NodeId To, EdgeKind Kind,
                            Symbol Label) {
  uint32_t E = Graph.addEdge(From, To, Kind, Label);
  for (GraphObserver *O : Observers)
    O->onEdgeAdded(*this, Graph.edges()[E]);
}

//===----------------------------------------------------------------------===//
// Function enter/exit (Algorithms 1 and 3)
//===----------------------------------------------------------------------===//

void AsyncGBuilder::onFunctionEnter(const instr::FunctionEnterEvent &E) {
  const DispatchInfo &D = E.Dispatch;

  // §V-B: when AsyncG is enabled in the middle of a run the real stack may
  // not be empty; it waits for the current tick to finish and constructs
  // the shadow stack from the following tick. We synchronize at the first
  // top-level dispatch we observe.
  if (!Synced) {
    if (!D.TopLevel)
      return;
    Synced = true;
  }

  // Algorithm 1: a new tick starts when the shadow stack is empty; its
  // type comes from the dispatch (getIterType).
  if (ShadowStack.empty())
    openTick(D.Phase);
  ShadowStack.push_back(E.F.id());

  NodeId Ce = InvalidNode;
  if (Config.BuildGraph && !filtered(D.Api)) {
    // Algorithm 3: map this execution to a pending registration.
    const PendingChain *Chain = Pending.find(E.F.id());
    for (uint32_t C = Chain ? Chain->Head : detail::AdjNil;
         C != detail::AdjNil; C = PendingPool[C].FnNext) {
      const PendingReg &Reg = PendingPool[C].Reg;
      if (!ContextValidator::isValid(Reg, D, CurTick.Phase))
        continue;
      assert(ContextValidator::contextMatches(Reg, D, CurTick.Phase) &&
             "registration id and contextual validation disagree");

      AgNode Node;
      Node.Kind = NodeKind::CE;
      Node.Loc = E.F.loc();
      Node.Api = Reg.Api;
      Node.FuncName = E.F.nameSymbol();
      Node.Func = E.F.id();
      Node.Sched = Reg.Sched;
      Node.Obj = Reg.BoundObj;
      Node.Event = Reg.Event;
      Node.Internal = E.F.isBuiltin();
      Ce = addNode(std::move(Node));

      // Dashed binding edge CE ⇠ CR.
      addEdge(Ce, Reg.Cr, EdgeKind::Binding);
      // Causal edge from the trigger if one exists, else from the CR.
      NodeId Ct = D.Trigger.isNone() ? InvalidNode
                                     : Graph.triggerNode(D.Trigger.Id);
      if (Ct != InvalidNode)
        addEdge(Ct, Ce, EdgeKind::Causal);
      else
        addEdge(Reg.Cr, Ce, EdgeKind::Causal);

      ++Graph.node(Reg.Cr).ExecCount;
      if (Reg.Once) {
        unpinRegion(Reg.Region);
        erasePending(C);
      }
      break;
    }

    // Top-level executions without a tracked registration (internal I/O
    // dispatchers, pass-through micro-tasks) still root their tick —
    // unless the whole phase is excluded by the configuration.
    if (Ce == InvalidNode && D.TopLevel &&
        !(D.Phase == PhaseKind::PromiseMicro && !Config.TrackPromises)) {
      AgNode Node;
      Node.Kind = NodeKind::CE;
      Node.Loc = E.F.loc();
      Node.Api = D.Api;
      Node.FuncName = E.F.nameSymbol();
      Node.Func = E.F.id();
      Node.Sched = D.Sched;
      Node.Internal = true;
      Ce = addNode(std::move(Node));
      // Pass-through micro-tasks (a reaction with no handler for the taken
      // path) still consume their registration: bind the CE to the CR even
      // though the executing body is internal.
      NodeId Cr = D.Sched != 0 ? Graph.registrationNode(D.Sched)
                               : InvalidNode;
      if (Cr != InvalidNode) {
        addEdge(Ce, Cr, EdgeKind::Binding);
        ++Graph.node(Cr).ExecCount;
      }
      NodeId Ct = D.Trigger.isNone() ? InvalidNode
                                     : Graph.triggerNode(D.Trigger.Id);
      if (Ct != InvalidNode)
        addEdge(Ct, Ce, EdgeKind::Causal);
      else if (Cr != InvalidNode)
        addEdge(Cr, Ce, EdgeKind::Causal);
    }
  }
  CeStack.push_back(Ce);
}

void AsyncGBuilder::onFunctionExit(const instr::FunctionExitEvent &E) {
  // Exits of frames entered before the builder attached are ignored
  // (mid-run activation, see onFunctionEnter).
  if (!Synced || ShadowStack.empty())
    return;
  [[maybe_unused]] FunctionId Popped = ShadowStack.back();
  ShadowStack.pop_back();
  assert(Popped == E.F.id() && "shadow stack out of sync");
  (void)E;
  CeStack.pop_back();
  if (ShadowStack.empty())
    commitTick();
}

//===----------------------------------------------------------------------===//
// API calls (Algorithm 2)
//===----------------------------------------------------------------------===//

void AsyncGBuilder::processRegistration(const instr::ApiCallEvent &E) {
  AgNode Node;
  Node.Kind = NodeKind::CR;
  Node.Loc = E.Loc;
  Node.Api = E.Api;
  Node.Func = E.Callbacks.empty() ? 0 : E.Callbacks.front().id();
  Node.Sched = E.Sched;
  Node.Obj = E.BoundObj;
  Node.Event = E.EventName;
  Node.Internal = E.Internal || E.Loc.isInternal();
  Node.TimeoutMs = E.TimeoutMs;
  Node.HasRejectHandler = E.HasRejectHandler;
  Node.DerivedObj = E.DerivedObj;
  NodeId Cr = addNode(std::move(Node));

  for (const Function &Cb : E.Callbacks) {
    PendingReg Reg;
    Reg.Cr = Cr;
    Reg.Sched = E.Sched;
    Reg.Api = E.Api;
    Reg.TargetPhase = E.TargetPhase;
    Reg.Once = E.Once;
    Reg.BoundObj = E.BoundObj;
    Reg.Event = E.EventName;
    Reg.Region = pinRegion();
    addPending(Cb.id(), Reg);
  }

  // Relation edge from the bound object's OB node (△ ⇠ □, labeled with the
  // event name for emitters and the API name for promises).
  if (E.BoundObj != 0) {
    NodeId Ob = Graph.objectNode(E.BoundObj);
    if (Ob != InvalidNode)
      addEdge(Ob, Cr, EdgeKind::Relation,
              E.EventName.empty() ? apiKindSymbol(E.Api) : E.EventName);
  }
}

void AsyncGBuilder::processTrigger(const instr::ApiCallEvent &E) {
  AgNode Node;
  Node.Kind = NodeKind::CT;
  Node.Loc = E.Loc;
  Node.Api = E.Api;
  Node.Obj = E.BoundObj;
  Node.Trigger = E.Trigger;
  Node.Event = E.EventName;
  Node.HadEffect = E.TriggerHadEffect;
  Node.Internal = E.Internal || E.Loc.isInternal();
  NodeId Ct = addNode(std::move(Node));

  if (E.BoundObj != 0) {
    NodeId Ob = Graph.objectNode(E.BoundObj);
    if (Ob != InvalidNode)
      addEdge(Ob, Ct, EdgeKind::Relation,
              E.EventName.empty() ? apiKindSymbol(E.Api) : E.EventName);
  }
}

void AsyncGBuilder::processCombinator(const instr::ApiCallEvent &E) {
  NodeId Result = Graph.objectNode(E.BoundObj);
  if (Result == InvalidNode)
    return;
  for (ObjectId In : E.InputObjs) {
    NodeId Ob = Graph.objectNode(In);
    if (Ob != InvalidNode)
      addEdge(Ob, Result, EdgeKind::Relation, apiKindSymbol(E.Api));
  }
}

void AsyncGBuilder::processRemoval(const instr::ApiCallEvent &E) {
  // A removed registration can never fire: mark its CR, notify observers,
  // and erase it from the pending lists (releasing its region pin).
  if (E.Api == ApiKind::EmitterRemoveListener) {
    if (!E.TriggerHadEffect || E.Callbacks.empty())
      return;
    const PendingChain *Chain = Pending.find(E.Callbacks.front().id());
    for (uint32_t C = Chain ? Chain->Head : detail::AdjNil;
         C != detail::AdjNil; C = PendingPool[C].FnNext) {
      const PendingReg &Reg = PendingPool[C].Reg;
      if (Reg.BoundObj != E.BoundObj || Reg.Event != E.EventName)
        continue;
      NodeId CrId = Reg.Cr;
      Graph.node(CrId).Removed = true;
      unpinRegion(Reg.Region);
      erasePending(C);
      for (GraphObserver *O : Observers)
        O->onRegistrationRemoved(*this, CrId);
      return;
    }
    return;
  }

  if (E.Api == ApiKind::EmitterRemoveAll) {
    const PendingChain *Chain = PendingByObj.find(E.BoundObj);
    for (uint32_t C = Chain ? Chain->Head : detail::AdjNil, Next;
         C != detail::AdjNil; C = Next) {
      // Read the link first: erasing the chain's last cell drops the
      // chain itself.
      Next = PendingPool[C].ObjNext;
      const PendingReg &Reg = PendingPool[C].Reg;
      if (Reg.Event != E.EventName)
        continue;
      NodeId CrId = Reg.Cr;
      Graph.node(CrId).Removed = true;
      unpinRegion(Reg.Region);
      erasePending(C);
      for (GraphObserver *O : Observers)
        O->onRegistrationRemoved(*this, CrId);
    }
  }
}

void AsyncGBuilder::onApiCall(const instr::ApiCallEvent &E) {
  if (!Config.BuildGraph || filtered(E.Api))
    return;

  ApiTemplate T = getAsyncTemplate(E.Api);
  switch (T.Kind) {
  case TemplateKind::Registration:
    // Internal calls without callbacks are bookkeeping, not registrations.
    if (!E.Callbacks.empty())
      processRegistration(E);
    break;
  case TemplateKind::Trigger:
    processTrigger(E);
    break;
  case TemplateKind::Combinator:
    processCombinator(E);
    break;
  case TemplateKind::Misc:
    processRemoval(E);
    break;
  }

  for (GraphObserver *O : Observers)
    O->onApiEvent(*this, E);
}

//===----------------------------------------------------------------------===//
// Objects, reactions, loop end
//===----------------------------------------------------------------------===//

void AsyncGBuilder::onObjectCreate(const instr::ObjectCreateEvent &E) {
  if (!Config.BuildGraph)
    return;
  if (E.IsPromise ? !Config.TrackPromises : !Config.TrackEmitters)
    return;

  AgNode Node;
  Node.Kind = NodeKind::OB;
  Node.Loc = E.Loc;
  Node.Obj = E.Obj;
  Node.Internal = E.Internal || E.Loc.isInternal();
  Node.IsPromise = E.IsPromise;
  NodeId Ob = addNode(std::move(Node));
  // The OB pins its region until the runtime releases the object: queries
  // and detectors can reach it for as long as the program can.
  if (Config.Retire) {
    if (Ob >= ObRegion.size())
      ObRegion.resize(Graph.nodes().size());
    ObRegion[Ob] = pinRegion();
  }

  // Promise chain relation: parent △ ⇠ derived △ labeled with the API.
  if (E.Parent != 0) {
    NodeId Parent = Graph.objectNode(E.Parent);
    if (Parent != InvalidNode)
      addEdge(Parent, Ob, EdgeKind::Relation, apiKindSymbol(E.Relation));
  }
}

void AsyncGBuilder::onReactionResult(const instr::ReactionResultEvent &E) {
  if (!Config.BuildGraph || !Config.TrackPromises)
    return;
  NodeId Ob = Graph.objectNode(E.Derived);
  if (Ob != InvalidNode)
    Graph.node(Ob).ReactionReturnedUndefined = E.ReturnedUndefined;
}

void AsyncGBuilder::onPromiseLink(const instr::PromiseLinkEvent &E) {
  if (!Config.BuildGraph || !Config.TrackPromises)
    return;
  NodeId From = Graph.objectNode(E.Returned);
  NodeId To = Graph.objectNode(E.Derived);
  if (From != InvalidNode && To != InvalidNode)
    addEdge(From, To, EdgeKind::Relation, "link");
}

void AsyncGBuilder::onObjectRelease(const instr::ObjectReleaseEvent &E) {
  if (!Config.BuildGraph)
    return;
  if (E.IsPromise ? !Config.TrackPromises : !Config.TrackEmitters)
    return;

  // Every registration still bound to the object can never fire again:
  // give observers the definitive verdict, then erase it. This runs in
  // both modes so detector inputs are identical with and without --retire.
  const PendingChain *Chain = PendingByObj.find(E.Obj);
  for (uint32_t C = Chain ? Chain->Head : detail::AdjNil, Next;
       C != detail::AdjNil; C = Next) {
    Next = PendingPool[C].ObjNext;
    const PendingReg &Reg = PendingPool[C].Reg;
    for (GraphObserver *O : Observers)
      O->onRegistrationReleased(*this, Reg.Cr);
    unpinRegion(Reg.Region);
    erasePending(C);
  }

  NodeId Ob = Graph.objectNode(E.Obj);
  for (GraphObserver *O : Observers)
    O->onObjectReleased(*this, Ob, E.Obj, E.IsPromise);
  // The object's OB node (if it was ever bound into the graph) no longer
  // pins its region.
  if (Config.Retire && Ob != InvalidNode)
    unpinRegion(ObRegion[Ob]);
}

void AsyncGBuilder::onLoopEnd(const instr::LoopEndEvent &E) {
  (void)E;
  assert(ShadowStack.empty() && "loop ended mid-callback");
  commitTick();
  // Regions quiesced by releases since the last commit retire now, before
  // end-of-run analyses run over the retained window.
  runRetireScan();
  for (GraphObserver *O : Observers)
    O->onEnd(*this);
}

size_t AsyncGBuilder::memoryFootprint() const {
  size_t Bytes = Graph.memoryFootprint();
  Bytes += Pending.memoryUsage() + PendingByObj.memoryUsage();
  Bytes += PendingPool.capacity() * sizeof(PendingCell);
  Bytes += Regions.capacity() * sizeof(Region);
  Bytes += FreeRegions.capacity() * sizeof(uint32_t);
  Bytes += ObRegion.capacity() * sizeof(uint32_t);
  Bytes += Quiesced.capacity() * sizeof(QuiescedRegion);
  Bytes += ShadowStack.capacity() * sizeof(jsrt::FunctionId);
  Bytes += CeStack.capacity() * sizeof(NodeId);
  return Bytes;
}
