//===- EmitterDetectors.cpp - Emitter-bug detectors (§VI-A.2) ----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "detect/Detectors.h"

#include "support/Format.h"

#include <algorithm>

using namespace asyncg;
using namespace asyncg::detect;
using namespace asyncg::ag;
using namespace asyncg::jsrt;

namespace {

bool isListenerApi(ApiKind K) {
  return (ListenerApis >> static_cast<unsigned>(K)) & 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Listener counts
//===----------------------------------------------------------------------===//

unsigned &ListenerCounts::at(ObjectId Obj, Symbol Event, FunctionId Fn) {
  std::vector<Entry> &Entries = ByEmitter[Obj];
  for (Entry &E : Entries)
    if (E.Event == Event && E.Fn == Fn)
      return E.Count;
  Entries.push_back(Entry{Event, Fn, 0});
  return Entries.back().Count;
}

void ListenerCounts::decrement(ObjectId Obj, Symbol Event, FunctionId Fn) {
  std::vector<Entry> *Entries = ByEmitter.find(Obj);
  if (!Entries)
    return;
  for (Entry &E : *Entries)
    if (E.Event == Event && E.Fn == Fn) {
      if (E.Count > 0)
        --E.Count;
      return;
    }
}

void ListenerCounts::clearEvent(ObjectId Obj, Symbol Event) {
  std::vector<Entry> *Entries = ByEmitter.find(Obj);
  if (!Entries)
    return;
  Entries->erase(std::remove_if(Entries->begin(), Entries->end(),
                                [Event](const Entry &E) {
                                  return E.Event == Event;
                                }),
                 Entries->end());
}

//===----------------------------------------------------------------------===//
// Dead listeners (§VI-A.2a)
//===----------------------------------------------------------------------===//

Symbol DeadListenerDetector::messageFor(const AgNode &N) {
  return message(N.Event.id(), [&] {
    return strFormat("listener for event '%s' never executed (dead "
                     "listener): the emitter never emitted it while the "
                     "listener was registered",
                     N.Event.c_str());
  });
}

Subscription DeadListenerDetector::subscription() const {
  Subscription S;
  S.nodes(NodeKind::CR, ListenerApis).edges(EdgeKind::Binding);
  S.RegistrationRemoved = true;
  S.RegistrationReleased = true;
  S.End = true;
  return S;
}

void DeadListenerDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);
  if (Node.Kind == NodeKind::CR && isListenerApi(Node.Api) && !Node.Internal)
    PendingSet[N] = 1;
}

void DeadListenerDetector::onEdgeAdded(AsyncGBuilder &B, const AgEdge &E) {
  // A binding edge CE -> CR means the registration executed (the builder
  // adds one on every path that bumps ExecCount).
  if (E.Kind == EdgeKind::Binding && !PendingSet.empty())
    PendingSet.erase(E.To);
  (void)B;
}

void DeadListenerDetector::onRegistrationRemoved(AsyncGBuilder &B,
                                                 NodeId Cr) {
  // Explicitly removed listeners are not dead listeners.
  (void)B;
  PendingSet.erase(Cr);
}

void DeadListenerDetector::onRegistrationReleased(AsyncGBuilder &B,
                                                  NodeId Cr) {
  // The emitter died with the listener never having fired: the verdict is
  // definitive, so the warning sticks across end-of-run recomputations.
  if (!PendingSet.contains(Cr))
    return;
  PendingSet.erase(Cr);
  warn(B, BugCategory::DeadListener, Cr,
       messageFor(B.graph().node(Cr)), /*Sticky=*/true);
}

void DeadListenerDetector::onEnd(AsyncGBuilder &B) {
  AsyncGraph &G = B.graph();
  G.clearWarnings({BugCategory::DeadListener});
  // O(pending), not a graph sweep. Sorted so repeated runs and the
  // retire-on/off modes report in the same order.
  std::vector<NodeId> Ids;
  Ids.reserve(PendingSet.size());
  for (const auto &KV : PendingSet)
    Ids.push_back(KV.first);
  std::sort(Ids.begin(), Ids.end());
  for (NodeId N : Ids)
    warn(B, BugCategory::DeadListener, N, messageFor(G.node(N)));
}

//===----------------------------------------------------------------------===//
// Dead emits (§VI-A.2b)
//===----------------------------------------------------------------------===//

Subscription DeadEmitDetector::subscription() const {
  return Subscription().nodes(NodeKind::CT, apiSet({ApiKind::EmitterEmit}));
}

void DeadEmitDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);
  if (Node.Kind != NodeKind::CT || Node.Api != ApiKind::EmitterEmit)
    return;
  if (Node.HadEffect || Node.Internal)
    return;
  warn(B, BugCategory::DeadEmit, N, message(Node.Event.id(), [&] {
         return strFormat("event '%s' emitted with no registered listener "
                          "(dead emit)",
                          Node.Event.c_str());
       }));
}

//===----------------------------------------------------------------------===//
// Invalid listener removal (§VI-A.2c)
//===----------------------------------------------------------------------===//

Subscription InvalidRemovalDetector::subscription() const {
  Subscription S;
  S.Calls = apiSet({ApiKind::EmitterRemoveListener});
  return S;
}

void InvalidRemovalDetector::onApiEvent(AsyncGBuilder &B,
                                        const instr::ApiCallEvent &E) {
  if (E.Api != ApiKind::EmitterRemoveListener || E.TriggerHadEffect)
    return;
  bool NoFn = E.Callbacks.empty();
  Symbol Fn = NoFn ? Symbol() : E.Callbacks.front().nameSymbol();
  uint64_t Key = uint64_t(E.EventName.id()) << 33 | uint64_t(Fn.id()) << 1 |
                 uint64_t(NoFn);
  warnAt(B, BugCategory::InvalidListenerRemoval, E.Loc, message(Key, [&] {
           return strFormat("removeListener('%s', %s) removed nothing: the "
                            "passed function is not a registered listener "
                            "(a fresh function object only looks the same)",
                            E.EventName.c_str(),
                            NoFn ? "<function>" : Fn.c_str());
         }));
}

//===----------------------------------------------------------------------===//
// Duplicate listeners (§VI-A.2d)
//===----------------------------------------------------------------------===//

Subscription DuplicateListenerDetector::subscription() const {
  Subscription S;
  S.nodes(NodeKind::CE, apiSet({ApiKind::EmitterOnce}))
      .nodes(NodeKind::CR, ListenerApis);
  S.Calls =
      apiSet({ApiKind::EmitterRemoveListener, ApiKind::EmitterRemoveAll});
  S.EmitterReleases = true;
  return S;
}

void DuplicateListenerDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);

  // A once-listener firing leaves the live set.
  if (Node.Kind == NodeKind::CE && Node.Api == ApiKind::EmitterOnce) {
    Live.decrement(Node.Obj, Node.Event, Node.Func);
    return;
  }

  if (Node.Kind != NodeKind::CR || !isListenerApi(Node.Api))
    return;
  unsigned &Count = Live.at(Node.Obj, Node.Event, Node.Func);
  if (Count >= 1 && !Node.Internal)
    warn(B, BugCategory::DuplicateListener, N,
         message(Node.Event.id(), [&] {
           return strFormat("the same function is already registered as a "
                            "listener for event '%s' on this emitter",
                            Node.Event.c_str());
         }));
  ++Count;
}

void DuplicateListenerDetector::onApiEvent(AsyncGBuilder &B,
                                           const instr::ApiCallEvent &E) {
  (void)B;
  if (E.Api == ApiKind::EmitterRemoveListener && E.TriggerHadEffect &&
      !E.Callbacks.empty()) {
    Live.decrement(E.BoundObj, E.EventName, E.Callbacks.front().id());
    return;
  }
  if (E.Api == ApiKind::EmitterRemoveAll)
    Live.clearEvent(E.BoundObj, E.EventName);
}

void DuplicateListenerDetector::onObjectReleased(AsyncGBuilder &B, NodeId Ob,
                                                 ObjectId Obj,
                                                 bool IsPromise) {
  (void)B;
  (void)Ob;
  if (!IsPromise)
    Live.eraseEmitter(Obj);
}

//===----------------------------------------------------------------------===//
// Add listener within listener (§VI-A.2e)
//===----------------------------------------------------------------------===//

Subscription AddListenerWithinListenerDetector::subscription() const {
  return Subscription().nodes(NodeKind::CR, ListenerApis);
}

void AddListenerWithinListenerDetector::onNodeAdded(AsyncGBuilder &B,
                                                    NodeId N) {
  const AgNode &Node = B.graph().node(N);
  if (Node.Kind != NodeKind::CR || !isListenerApi(Node.Api) ||
      Node.Internal || Node.Obj == 0)
    return;
  for (NodeId CeId : B.ceStack()) {
    if (CeId == InvalidNode)
      continue;
    const AgNode &Ce = B.graph().node(CeId);
    if (Ce.Kind == NodeKind::CE && isListenerApi(Ce.Api) &&
        Ce.Obj == Node.Obj) {
      uint64_t Key = uint64_t(Node.Event.id()) << 32 | Ce.Event.id();
      warn(B, BugCategory::AddListenerWithinListener, N, message(Key, [&] {
             return strFormat("listener for '%s' registered inside another "
                              "listener ('%s') of the same emitter: it is "
                              "lost whenever the outer listener does not run "
                              "first",
                              Node.Event.c_str(), Ce.Event.c_str());
           }));
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Listener leak (extra: Node's MaxListenersExceededWarning heuristic)
//===----------------------------------------------------------------------===//

Subscription ListenerLeakDetector::subscription() const {
  Subscription S;
  S.nodes(NodeKind::CE, apiSet({ApiKind::EmitterOnce}))
      .nodes(NodeKind::CR, ListenerApis);
  S.Calls =
      apiSet({ApiKind::EmitterRemoveListener, ApiKind::EmitterRemoveAll});
  S.EmitterReleases = true;
  return S;
}

void ListenerLeakDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);

  if (Node.Kind == NodeKind::CE && Node.Api == ApiKind::EmitterOnce) {
    Live.decrement(Node.Obj, Node.Event, 0);
    return;
  }

  if (Node.Kind != NodeKind::CR || !isListenerApi(Node.Api) || Node.Obj == 0)
    return;
  unsigned &Count = Live.at(Node.Obj, Node.Event, 0);
  ++Count;
  if (Count == Config.MaxListeners + 1)
    warn(B, BugCategory::ListenerLeak, N, message(Node.Event.id(), [&] {
           return strFormat("%u listeners registered for event '%s' on one "
                            "emitter (limit %u): possible subscription leak "
                            "— are listeners ever removed?",
                            Count, Node.Event.c_str(), Config.MaxListeners);
         }));
}

void ListenerLeakDetector::onApiEvent(AsyncGBuilder &B,
                                      const instr::ApiCallEvent &E) {
  (void)B;
  if (E.Api == ApiKind::EmitterRemoveListener && E.TriggerHadEffect) {
    Live.decrement(E.BoundObj, E.EventName, 0);
    return;
  }
  if (E.Api == ApiKind::EmitterRemoveAll)
    Live.clearEvent(E.BoundObj, E.EventName);
}

void ListenerLeakDetector::onObjectReleased(AsyncGBuilder &B, NodeId Ob,
                                            ObjectId Obj, bool IsPromise) {
  (void)B;
  (void)Ob;
  if (!IsPromise)
    Live.eraseEmitter(Obj);
}
